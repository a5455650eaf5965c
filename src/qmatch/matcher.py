"""Sentence representations and the matching score.

A sentence is encoded by, for each window size l, sliding l-wide windows
over the word states, mixing each window into a density matrix, applying
every measurement (a unit row of ``params.measurements``), and
max-pooling each measurement's probability over the windows.  The pooled
blocks are concatenated in ``window_sizes`` order.  Question and answer
are compared by cosine similarity and trained with a triplet hinge loss;
``cosines`` is the one cosine: the training hinge applies it to stacked
row pairs, evaluation to a question against its candidates, and ``score``
is its one-pair view.

The measurement probabilities come from the factored identity
<v|rho|v> = sum_i p(w_i) |<v|w_i>|^2, which never builds rho.
``forward_batch`` runs N sentences at once, in two stages.  The word stage
gives each distinct word (each token occurrence under embedding dropout)
its weight, unit state and Born row |<v|w>|^2 in one product; a row's bits
depend on that word alone.  The window stage puts every window's softmax
in one token-major (tokens, sizes, width) array, each shifted by its own
max norm so no gap overflows; a window reads its own sentence's words
only, so a non-finite word stays in its sentence.  The weighted Born sum
is one (sizes, width) @ (width, k) product per token: every window of
every size starting at that token at once, in a product of one shape in
any batch, so a token's probabilities do not depend on its batch.  Window
t starts at token t, so a sentence's windows are one contiguous block of
rows, and max-pooling reduces each block in place.  The global mixture
(one order-blind mixed system per sentence) averages the sentence's Born
rows in ascending table-row order, so a permuted sentence gets the same
bits.

``BatchTape`` is the one tape: training runs an SGD batch per
``forward_batch`` call, passing the generator that makes it train mode
(dropout runs exactly when one is given), the analytic backward pass
differentiates its tape, and ``interpret`` reads a match map's window
columns and weights off one tape over the question and the answer.
Evaluation ranks through ``represent_groups``: it lays a split out once,
runs the word stage once over the split's distinct words and the window
stage once per question and its candidates, with the bits
``forward_batch`` would give.  ``represent`` is a batch of one, and a
sentence's result does not depend on the batch it ran in.  The explicit
density-matrix route, ``reference.represent_dense``, is the oracle the
test suite pins this path against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import (
    DEGENERATE_WEIGHT,
    ZERO_NORM,
    phase_factor,
    row_norms,
    uniform_state,
)
from .errors import DegenerateInputError, ShapeError
from .model import GLOBAL_MIXTURE, ParameterSet, TrainerConfig

# The dense oracle lives in ``reference``; bench/workloads.py reads it as
# ``matcher.represent_dense`` in its correctness gate.
from .reference import represent_dense  # noqa: F401

# Words per word-stage call in represent_groups: bounds the states and
# inner products held at once (about 1 MB at n = k = 50) for any split size.
_TABLE_CHUNK = 512


def _dropout_mask(shape, keep: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) < keep).astype(np.float64) / keep


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` rounded the same way for any row count of ``a``.

    numpy hands a one-row product to BLAS gemv, which rounds differently
    from gemm, so a one-row ``a`` is doubled.  A row's result then does not
    depend on which batch it was computed in, as far as gemm itself rounds
    each row the same for any row count (as single-threaded OpenBLAS does).
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


@dataclass
class BatchTape:
    """Everything the backward pass needs about one forward_batch call.

    The N sentences' tokens lie end to end on one token axis of length T;
    sentence s holds tokens ``starts[s]`` to ``starts[s] + lengths[s]``.
    Word quantities live on table rows: one row per distinct id without
    embedding dropout, one row per token with it (its mask is per token);
    token t's id is ``words[rows[t]]``.
    Window arrays are token-major: window t starts at token t, so sentence
    s's windows are rows ``span(s)`` of each window array.
    """

    lengths: np.ndarray          # (N,) tokens per sentence after truncation
    starts: np.ndarray           # (N,) first token of each sentence
    words: np.ndarray            # (U,) vocabulary id of each table row
    rows: np.ndarray             # (T,) table row of each token
    emb_mask: np.ndarray | None  # (T, n) dropout mask on amplitude rows
    amp_eff: np.ndarray          # (U, n) masked amplitude rows
    eiph: np.ndarray             # (U, n) exp(i * phase)
    alive: np.ndarray            # (U,) False where the row degenerated
    pi: np.ndarray               # (U,) word weights actually used
    states: np.ndarray           # (U, n) unit states
    inner: np.ndarray            # (U, k) <v_k|w>
    inner_sq: np.ndarray         # (U, k) |<v_k|w>|^2, the Born table
    # B window sizes, widest W; B = W = 0 under the global mixture
    window_pos: np.ndarray       # (T, W) token at each window offset (clipped)
    window_weights: np.ndarray   # (T, B, W) softmax word weights, 0 off-window
    window_probs: np.ndarray     # (T, B, k) measurement probabilities
    pooled_mask: np.ndarray | None   # (N, R) dropout mask on pooled vectors

    def span(self, s: int) -> slice:
        """Sentence s's tokens on the token axis."""
        start = int(self.starts[s])
        return slice(start, start + int(self.lengths[s]))

    def winners(self, s: int, out: np.ndarray | None = None) -> np.ndarray:
        """(B, k) start of each measurement's winning window in sentence s,
        counted from the sentence's first token; ties go to the lowest.
        ``out``, an intp array, takes the result in place."""
        return self.window_probs[self.span(s)].argmax(axis=0, out=out)


def _truncate(token_ids: np.ndarray, config: TrainerConfig) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"token ids must be 1-D, got shape {ids.shape}")
    if ids.size == 0:
        raise DegenerateInputError("cannot represent an empty sentence")
    return ids[: config.max_sentence_len]


def _lay_out(
    id_lists, config: TrainerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated sentences end to end: (ids (T,), starts (N,), lengths (N,))."""
    sentences = [_truncate(ids, config) for ids in id_lists]
    if not sentences:
        raise DegenerateInputError("a batch needs at least one sentence")
    lengths = np.array([ids.size for ids in sentences])
    starts = np.cumsum(lengths) - lengths
    return np.concatenate(sentences), starts, lengths


def _word_stage(amp_eff: np.ndarray, eiph: np.ndarray, measurements: np.ndarray):
    """Word weights, unit states and Born table of polar word rows.

    Returns (pi, alive, states, inner, inner_sq).  Each output row depends
    on its own input row only (``matmul_rows`` rounds a row alike at any
    row count), so a word gets the same bits in any table.
    """
    pi = row_norms(amp_eff)
    alive = pi >= ZERO_NORM
    safe = np.where(alive, pi, 1.0)
    states = (amp_eff / safe[:, None]) * eiph
    states[~alive] = uniform_state(amp_eff.shape[1])
    pi = np.where(alive, pi, DEGENERATE_WEIGHT)
    inner = matmul_rows(states, measurements.conj().T)   # (U, k)
    inner_sq = inner.real**2 + inner.imag**2              # |<v|w>|^2
    return pi, alive, states, inner, inner_sq


def _window_stage(
    rows: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    pi: np.ndarray,
    inner_sq: np.ndarray,
    config: TrainerConfig,
):
    """Window mixtures and max-pooling over word-table rows.

    Token t of the laid-out sentences reads table row ``rows[t]``.  Returns
    (pooled (N, R), window_pos, window_weights, window_probs) with the
    shapes BatchTape documents.
    """
    T = rows.size
    k = inner_sq.shape[1]
    if config.mixture == GLOBAL_MIXTURE:
        # one mean per sentence over its rows in ascending table-row order,
        # so a permuted sentence gets the same bits (lexsort, as np.unique
        # would import numpy.ma); reduceat sums each block in that order
        sentence = np.repeat(np.arange(lengths.size), lengths)
        tok_sq = inner_sq[rows[np.lexsort((rows, sentence))]]
        pooled = np.add.reduceat(tok_sq, starts) / lengths[:, None]
        no_windows = np.zeros((T, 0), dtype=np.int64)
        return pooled, no_windows, np.zeros((T, 0, 0)), np.zeros((T, 0, k))
    sizes = np.asarray(config.window_sizes)
    offsets = np.arange(sizes.max())
    tokens = np.arange(T)
    ends = np.repeat(starts + lengths, lengths)          # (T,) sentence ends
    reach = tokens[:, None] + offsets                    # (T, W)
    window_pos = np.minimum(reach, ends[:, None] - 1)
    inside = (reach < ends[:, None])[:, None] & (offsets < sizes[:, None])
    # softmax over each window's norms, shifted by that window's max; max
    # and sum run offset by offset, in the order a short reduction takes
    window_rows = rows[window_pos]
    logits = np.where(inside, pi[window_rows][:, None], -np.inf)  # (T, B, W)
    top = logits[:, :, 0].copy()
    for o in offsets[1:]:
        np.maximum(top, logits[:, :, o], out=top)
    e = np.exp(logits - top[:, :, None])
    total = e[:, :, 0].copy()
    for o in offsets[1:]:
        total += e[:, :, o]
    weights = e / total[:, :, None]
    probs = weights @ inner_sq[window_rows]   # one (B, W) @ (W, k) per token
    # a sentence's windows are one block of token rows: max-pool each block
    pooled = np.empty((lengths.size, sizes.size, k))
    for s, (a, L) in enumerate(zip(starts, lengths)):
        np.maximum.reduce(probs[a : a + L], axis=0, out=pooled[s])
    pooled = pooled.reshape(lengths.size, sizes.size * k)
    return pooled, window_pos, weights, probs


def forward_batch(
    id_lists,
    params: ParameterSet,
    config: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, BatchTape]:
    """Factored forward pass over N sentences; returns (reps (N, R), tape).

    A generator means train mode: dropout runs exactly when ``rng`` is
    given.  It draws every token's amplitude mask as one (T, n) block, then
    every sentence's pooled mask as one (N, R) block.
    """
    ids, starts, lengths = _lay_out(id_lists, config)
    T = ids.size

    keep = config.keep_probability
    emb_mask = pooled_mask = None
    if rng is not None and keep < 1.0:
        emb_mask = _dropout_mask((T, params.dim), keep, rng)
        pooled_mask = _dropout_mask((lengths.size, config.representation_len), keep, rng)

    words, rows = np.unique(ids, return_inverse=True)
    eiph = phase_factor(params.phase[words])   # phases are never masked
    amp_eff = params.amplitude[words]
    if emb_mask is not None:
        amp_eff = amp_eff[rows] * emb_mask
        eiph = eiph[rows]
        words, rows = ids, np.arange(T)

    pi, alive, states, inner, inner_sq = _word_stage(
        amp_eff, eiph, params.measurements
    )
    pooled, window_pos, weights, probs = _window_stage(
        rows, starts, lengths, pi, inner_sq, config
    )
    representation = pooled if pooled_mask is None else pooled * pooled_mask

    tape = BatchTape(
        lengths=lengths,
        starts=starts,
        words=words,
        rows=rows,
        emb_mask=emb_mask,
        amp_eff=amp_eff,
        eiph=eiph,
        alive=alive,
        pi=pi,
        states=states,
        inner=inner,
        inner_sq=inner_sq,
        window_pos=window_pos,
        window_weights=weights,
        window_probs=probs,
        pooled_mask=pooled_mask,
    )
    return representation, tape


def represent_groups(
    groups, params: ParameterSet, config: TrainerConfig
) -> list[np.ndarray]:
    """Eval-mode representations of groups of sentences (a question and its
    candidates): one (n_g, R) array per group, each sentence with the bits
    ``forward_batch`` gives it.  Every sentence is laid out once; the word
    stage runs over the groups' distinct words, _TABLE_CHUNK at a time, and
    the window stage once per group over that group's table rows."""
    laid = [_lay_out(group, config) for group in groups]
    words, rows = np.unique(
        np.concatenate([ids for ids, _, _ in laid]), return_inverse=True
    )
    pi = np.empty(words.size)
    inner_sq = np.empty((words.size, params.k))
    for start in range(0, words.size, _TABLE_CHUNK):
        chunk = slice(start, start + _TABLE_CHUNK)
        pi[chunk], _, _, _, inner_sq[chunk] = _word_stage(
            params.amplitude[words[chunk]],
            phase_factor(params.phase[words[chunk]]),
            params.measurements,
        )
    ends = np.cumsum([ids.size for ids, _, _ in laid])
    return [
        _window_stage(
            rows[end - ids.size : end], starts, lengths, pi, inner_sq, config
        )[0]
        for (ids, starts, lengths), end in zip(laid, ends)
    ]


def forward_sentence(
    token_ids: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, BatchTape]:
    """Batch-of-one forward pass; returns (representation, tape).  The
    package never calls it: ``bench/tracing.py`` wraps it by name."""
    reps, tape = forward_batch([token_ids], params, config, rng)
    return reps[0], tape


def represent(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> np.ndarray:
    """Deterministic (eval mode, no dropout) sentence representation."""
    reps, _ = forward_batch([token_ids], params, config)
    return reps[0]


def cosines(u: np.ndarray, v: np.ndarray):
    """Cosine similarities of row pairs over the last axis (u and v
    broadcast): (cosines, |u|, |v|, zero), each of shape (..., 1).
    ``zero`` marks pairs with a row of norm below 1e-12, whose cosine is 0
    and whose norms read 1.  A row pair gets the same bits in any stack of
    rows."""
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    zero = (nu < 1e-12) | (nv < 1e-12)
    nu = np.where(zero, 1.0, nu)
    nv = np.where(zero, 1.0, nv)
    s = np.einsum("...d,...d->...", u, v)[..., None] / (nu * nv)
    return np.where(zero, 0.0, s), nu, nv, zero


def score(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two representations, as ``cosines`` gives it;
    zero whenever either representation is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"need two 1-D representations, got {u.shape}, {v.shape}")
    return float(cosines(u, v)[0][0])


def triplet_loss(s_pos, s_neg, margin: float):
    """Hinge on the ranking gap, max(0, margin - s_pos + s_neg), for one
    score pair or elementwise over arrays; a NaN score gives a NaN loss."""
    return np.maximum(0.0, margin - s_pos + s_neg)
