"""Model introspection: word importance, window-pair match maps, and
nearest words to each measurement vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Vocabulary, phase_factor, row_norms, tokenize
from .errors import DegenerateInputError
from .matcher import _word_stage, cosines, forward_batch
from .model import GLOBAL_MIXTURE, ParameterSet, TrainerConfig


def _alphabetical(tokens: tuple[str, ...]) -> np.ndarray:
    """Each token's position in alphabetical order."""
    ranks = np.empty(len(tokens), dtype=np.int64)
    ranks[sorted(range(len(tokens)), key=tokens.__getitem__)] = np.arange(len(tokens))
    return ranks


def _rank(values: np.ndarray, alphabetical: np.ndarray) -> np.ndarray:
    """Indices ordering ``values`` descending along the last axis, ties by
    their tokens' ``alphabetical`` positions."""
    return np.lexsort((np.broadcast_to(alphabetical, values.shape), -values))


@dataclass
class WordImportance:
    token: str
    norm: float


def word_importance(
    params: ParameterSet, vocab: Vocabulary, top_n: int | None = None
) -> list[WordImportance]:
    """Words ranked by the L2 norm of their learned amplitude rows.

    Descending by norm; ties broken alphabetically so the ranking is
    reproducible.  A zeroed row always lands at the bottom.
    """
    norms = row_norms(params.amplitude)
    order = _rank(norms, _alphabetical(vocab.tokens))[:top_n]
    return [WordImportance(token=vocab.tokens[i], norm=float(norms[i])) for i in order]


@dataclass
class WindowWeights:
    start: int
    tokens: list[str]
    weights: np.ndarray     # the model's mixture weights for these words, sum to 1


@dataclass
class MatchWeightMap:
    window_size: int
    question_window: WindowWeights
    answer_window: WindowWeights
    similarity: float       # cosine between the two windows' feature columns


def match_weight_map(
    params: ParameterSet,
    config: TrainerConfig,
    vocab: Vocabulary,
    question: str,
    answer: str,
) -> MatchWeightMap:
    """Best-matching window pair between a question and an answer.

    Scores every window pair per window size by the cosine of its
    measurement-probability columns, read from one eval-mode forward pass
    over both sentences, so windows cover only the sentences truncated at
    ``max_sentence_len`` and each window's word weights sum to one.
    Under the global mixture each sentence is one window: its column is
    the representation and its weights are uniform.  Scanning the pairs
    by (size, question start, answer start), a pair replaces the best only
    when its cosine is more than 1e-15 higher, so near-ties (windows whose
    reordered words round a few ulps apart) go to the first.
    """
    q_tokens, a_tokens = tokenize(question), tokenize(answer)
    if not q_tokens or not a_tokens:
        raise DegenerateInputError("question and answer must both contain tokens")
    reps, tape = forward_batch(
        [vocab.encode(q_tokens), vocab.encode(a_tokens)], params, config
    )
    is_global = config.mixture == GLOBAL_MIXTURE
    if is_global:
        widths = [int(tape.lengths.max())]
        q_cols, a_cols = reps[None, :1], reps[None, 1:]
    else:
        widths = config.window_sizes
        q_cols, a_cols = (
            tape.window_probs[tape.span(s)].transpose(1, 0, 2) for s in (0, 1)
        )
    sims = cosines(q_cols[:, :, None], a_cols[:, None])[0][..., 0]  # (B, Lq, La)

    flat = sims.ravel().tolist()
    best = 0
    for i, sim in enumerate(flat):
        if sim > flat[best] + 1e-15:
            best = i
    size, jq, ja = np.unravel_index(best, sims.shape)

    def window(s: int, tokens: list[str], j: int) -> WindowWeights:
        L = int(tape.lengths[s])
        if is_global:
            w = np.full(L, 1.0 / L)
        else:
            t = tape.starts[s] + j
            w = tape.window_weights[t, size, : min(widths[size], L - j)]
        return WindowWeights(start=int(j), tokens=tokens[j : j + w.size], weights=w)

    return MatchWeightMap(
        window_size=widths[size],
        question_window=window(0, q_tokens, jq),
        answer_window=window(1, a_tokens, ja),
        similarity=flat[best],
    )


@dataclass
class MeasurementNeighbors:
    measurement: int
    tokens: list[str]
    similarities: list[float]


def measurement_neighbors(
    params: ParameterSet, vocab: Vocabulary, top_n: int = 10
) -> list[MeasurementNeighbors]:
    """The most similar vocabulary words to each measurement vector.

    Similarity is the modulus of the Hermitian inner product between the
    measurement and the word's unit state (phase-invariant); ties list
    alphabetically.  Padding and unknown-word rows (ids 0 and 1) are
    excluded, so a vocabulary of those alone lists no neighbours.
    """
    word_ids = np.arange(2, len(vocab))
    *_, inner, _ = _word_stage(
        params.amplitude[word_ids],
        phase_factor(params.phase[word_ids]),
        params.measurements,
    )
    sims = np.abs(inner).T  # (k, |words|)
    order = _rank(sims, _alphabetical(vocab.tokens)[word_ids])[:, :top_n]
    return [
        MeasurementNeighbors(
            measurement=m,
            tokens=[vocab.tokens[i] for i in word_ids[row]],
            similarities=sims[m, row].tolist(),
        )
        for m, row in enumerate(order)
    ]
