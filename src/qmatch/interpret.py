"""Model introspection: word importance, window-pair match maps, and
nearest words to each measurement vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import (
    PAD_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    row_norms,
    tokenize,
)
from .errors import DegenerateInputError
from .matcher import _word_stage, forward_batch, score
from .model import GLOBAL_MIXTURE, ParameterSet, TrainerConfig


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
    order = sorted(range(len(vocab)), key=lambda i: (-norms[i], vocab.tokens[i]))
    if top_n is not None:
        order = order[:top_n]
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


def _window_features(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Per window size, the model's window columns and word weights.

    Read from the eval-mode forward tape, so windows cover only the
    sentence truncated at ``max_sentence_len``.  Each entry is
    (probabilities of shape (L, k), one weight row per window start).
    Under the global mixture there is one window, the whole sentence: its
    column is the representation and its weights are uniform.
    """
    _, tape = forward_batch([token_ids], params, config)
    L = tape.ids.size
    if config.mixture == GLOBAL_MIXTURE:
        return [(tape.representation, [np.full(L, 1.0 / L)])]
    return [
        (probs, [weights[j, : min(width, L - j)] for j in range(L)])
        for width, probs, weights in zip(
            config.window_sizes, tape.window_probs, tape.window_weights
        )
    ]


def match_weight_map(
    params: ParameterSet,
    config: TrainerConfig,
    vocab: Vocabulary,
    question: str,
    answer: str,
) -> MatchWeightMap:
    """Best-matching window pair between a question and an answer.

    Scores every window pair per window size by the cosine of its
    measurement-probability columns and keeps the argmax; ties resolve
    to the smallest (size, question start, answer start).  Columns and
    word weights come from the model's own forward pass, so each
    window's weights sum to one.
    """
    q_tokens, a_tokens = tokenize(question), tokenize(answer)
    if not q_tokens or not a_tokens:
        raise DegenerateInputError("question and answer must both contain tokens")
    q_feats = _window_features(vocab.encode(q_tokens), params, config)
    a_feats = _window_features(vocab.encode(a_tokens), params, config)
    if config.mixture == GLOBAL_MIXTURE:
        # one window spanning each full sentence: its weight row is that long
        widths = [max(len(q_feats[0][1][0]), len(a_feats[0][1][0]))]
    else:
        widths = list(config.window_sizes)

    best: MatchWeightMap | None = None
    for width, (q_probs, q_weights), (a_probs, a_weights) in zip(
        widths, q_feats, a_feats
    ):
        for jq, q_w in enumerate(q_weights):
            for ja, a_w in enumerate(a_weights):
                sim = score(q_probs[jq], a_probs[ja])
                if best is None or sim > best.similarity + 1e-15:
                    best = MatchWeightMap(
                        window_size=width,
                        question_window=WindowWeights(
                            start=jq, tokens=q_tokens[jq : jq + len(q_w)], weights=q_w
                        ),
                        answer_window=WindowWeights(
                            start=ja, tokens=a_tokens[ja : ja + len(a_w)], weights=a_w
                        ),
                        similarity=sim,
                    )
    assert best is not None
    return best


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
    measurement and the word's unit state (phase-invariant).  Padding
    and unknown-word rows are excluded.
    """
    skip = {vocab.index[PAD_TOKEN], vocab.index[UNK_TOKEN]}
    word_ids = [i for i in range(len(vocab)) if i not in skip]
    *_, inner, _ = _word_stage(
        params.amplitude[word_ids],
        np.exp(1j * params.phase[word_ids]),
        params.measurements,
    )
    sims = np.abs(inner).T  # (k, |words|)
    out = []
    for m in range(params.k):
        order = sorted(
            range(len(word_ids)),
            key=lambda j: (-sims[m, j], vocab.tokens[word_ids[j]]),
        )[:top_n]
        out.append(
            MeasurementNeighbors(
                measurement=m,
                tokens=[vocab.tokens[word_ids[j]] for j in order],
                similarities=[float(sims[m, j]) for j in order],
            )
        )
    return out
