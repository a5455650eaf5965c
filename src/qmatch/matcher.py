"""Sentence representations and the matching score.

A sentence is encoded by, for each window size l, sliding l-wide windows
over the word states, mixing each window into a density matrix, applying
every measurement, and max-pooling each measurement's probability over
the windows.  The pooled blocks are concatenated in ``window_sizes``
order; question and answer are compared by cosine similarity and trained
with a triplet hinge loss.

Two equivalent routes compute the measurement probabilities:

* ``represent_dense`` composes the mixture/measurement modules and
  materialises every window's density matrix;
* ``forward_batch`` uses the factored identity
  <v|rho|v> = sum_i p(w_i) |<v|w_i>|^2, never building rho.  It runs N
  sentences at once: one product gives the Born table |<v|w>|^2 for the
  batch's distinct words (its token occurrences under embedding dropout),
  and one (sizes, tokens, width) array holds every window's softmax, each
  shifted by its own max norm, so no gap overflows.

The batched factored route is the production path: evaluation ranks a
question per call, training runs an SGD batch per call, the analytic
backward pass differentiates its tape, and ``interpret`` reads its match
maps from the same tape.  ``forward_sentence`` and ``represent`` are
batches of one, and a sentence's result does not depend on the batch it
ran in.  The dense route is kept as a reference and the test suite pins
their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture
from .embedding import DEGENERATE_WEIGHT, WordState, uniform_state
from .errors import ConfigError, DegenerateInputError, ShapeError
from .measurement import MeasurementSet, max_pool, measure_all
from .model import GLOBAL_MIXTURE, ParameterSet, TrainerConfig

# Row norms below this have no usable direction (see normalize_word).
_ZERO_NORM = 1e-300


def _keep_probability(
    rate: float, is_keep_prob: bool, train: bool, rng: np.random.Generator | None
) -> float:
    """Validated keep probability; 1.0 when nothing is dropped."""
    if is_keep_prob:
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"keep probability must be in (0, 1], got {rate}")
        keep = rate
    else:
        if rate >= 1.0:
            raise ConfigError(f"drop probability must be < 1, got {rate}")
        if rate < 0.0:
            raise ConfigError(f"drop probability must be >= 0, got {rate}")
        keep = 1.0 - rate
    if not train or keep == 1.0:
        return 1.0
    if rng is None:
        raise ConfigError("dropout in train mode needs a random generator")
    return keep


def _dropout_mask(shape, keep: float, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(shape) < keep).astype(np.float64) / keep


def apply_dropout(
    x: np.ndarray,
    rate: float,
    rng: np.random.Generator | None,
    train: bool,
    is_keep_prob: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; returns (output, mask) with mask None in eval mode.

    ``rate`` is the drop probability by default, or the keep probability
    when ``is_keep_prob`` is set.  Complex inputs get one real mask per
    element (real and imaginary parts survive or die together).
    """
    keep = _keep_probability(rate, is_keep_prob, train, rng)
    if keep == 1.0:
        return x, None
    mask = _dropout_mask(x.shape, keep, rng)
    return x * mask, mask


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
    embedding dropout, one row per token with it (its mask is per token).
    Window arrays are per token too: window t starts at token t.
    """

    lengths: np.ndarray          # (N,) tokens per sentence after truncation
    starts: np.ndarray           # (N,) first token of each sentence
    ids: np.ndarray              # (T,) token ids
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
    window_weights: np.ndarray   # (B, T, W) softmax word weights, 0 off-window
    window_probs: np.ndarray     # (B, T, k) measurement probabilities
    pooled_mask: np.ndarray | None   # (N, R) dropout mask on pooled vectors
    representation: np.ndarray       # (N, R) final (possibly masked) vectors

    def span(self, s: int) -> slice:
        """Sentence s's tokens on the token axis."""
        start = int(self.starts[s])
        return slice(start, start + int(self.lengths[s]))

    def winners(self, s: int) -> np.ndarray:
        """(B, k) start of each measurement's winning window in sentence s,
        counted from the sentence's first token; ties go to the lowest."""
        return self.window_probs[:, self.span(s)].argmax(axis=1)

    def sentence(self, s: int) -> "SentenceTape":
        span = self.span(s)
        return SentenceTape(
            batch=self,
            index=s,
            ids=self.ids[span],
            emb_mask=None if self.emb_mask is None else self.emb_mask[span],
            window_weights=self.window_weights[:, span],
            window_probs=self.window_probs[:, span],
            argmax=self.winners(s),
            pooled_mask=None if self.pooled_mask is None else self.pooled_mask[s],
            representation=self.representation[s],
        )


@dataclass
class SentenceTape:
    """One sentence's view of a BatchTape, in sentence positions."""

    batch: BatchTape
    index: int                   # the sentence's position in the batch
    ids: np.ndarray              # (L,) token ids after truncation
    emb_mask: np.ndarray | None  # (L, n) dropout mask on amplitude rows
    window_weights: np.ndarray   # (B, L, W) softmax word weights, 0 off-window
    window_probs: np.ndarray     # (B, L, k) measurement probabilities
    argmax: np.ndarray           # (B, k) winning window start per measurement
    pooled_mask: np.ndarray | None   # dropout mask on the pooled vector
    representation: np.ndarray       # final (possibly masked) representation


def _truncate(token_ids: np.ndarray, config: TrainerConfig) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"token ids must be 1-D, got shape {ids.shape}")
    if ids.size == 0:
        raise DegenerateInputError("cannot represent an empty sentence")
    return ids[: config.max_sentence_len]


def forward_batch(
    id_lists,
    params: ParameterSet,
    config: TrainerConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, BatchTape]:
    """Factored forward pass over N sentences; returns (reps (N, R), tape).

    Dropout masks are drawn sentence by sentence (amplitude rows, then the
    pooled vector), so the random stream is that of N single-sentence calls.
    """
    sentences = [_truncate(ids, config) for ids in id_lists]
    if not sentences:
        raise DegenerateInputError("forward_batch needs at least one sentence")
    N = len(sentences)
    lengths = np.array([ids.size for ids in sentences])
    starts = np.cumsum(lengths) - lengths
    ids = np.concatenate(sentences)
    T = ids.size
    n = params.dim
    k = params.k
    local = config.mixture != GLOBAL_MIXTURE
    R = k * len(config.window_sizes) if local else k

    keep = _keep_probability(
        config.dropout_rate, config.dropout_is_keep_prob, train, rng
    )
    emb_mask = pooled_mask = None
    if keep < 1.0:
        masks = [
            (_dropout_mask((L, n), keep, rng), _dropout_mask(R, keep, rng))
            for L in lengths
        ]
        emb_mask = np.concatenate([m for m, _ in masks])
        pooled_mask = np.stack([m for _, m in masks])

    words, rows = np.unique(ids, return_inverse=True)
    eiph = np.exp(1j * params.phase[words])   # phases are never masked
    amp_eff = params.amplitude[words]
    if emb_mask is not None:
        amp_eff = amp_eff[rows] * emb_mask
        eiph = eiph[rows]
        rows = np.arange(T)

    pi = np.linalg.norm(amp_eff, axis=1)
    alive = pi >= _ZERO_NORM
    states = np.empty(amp_eff.shape, dtype=np.complex128)
    if alive.all():
        states[:] = (amp_eff / pi[:, None]) * eiph
    else:
        safe = np.where(alive, pi, 1.0)
        states[:] = (amp_eff / safe[:, None]) * eiph
        states[~alive] = uniform_state(n)
        pi = np.where(alive, pi, DEGENERATE_WEIGHT)

    inner = matmul_rows(states, params.measurements.conj().T)   # (U, k)
    inner_sq = inner.real**2 + inner.imag**2                    # |<v|w>|^2

    if not local:
        # one mean per sentence: np.add.reduceat would sum in another order
        tok_sq = inner_sq[rows]
        pooled = np.stack(
            [tok_sq[a : a + L].mean(axis=0) for a, L in zip(starts, lengths)]
        )
        window_pos = np.zeros((T, 0), dtype=np.int64)
        weights = np.zeros((0, T, 0))
        probs = np.zeros((0, T, k))
    else:
        sizes = np.asarray(config.window_sizes)
        B = sizes.size
        offsets = np.arange(sizes.max())
        tokens = np.arange(T)
        ends = np.repeat(starts + lengths, lengths)          # (T,) sentence ends
        reach = tokens[:, None] + offsets                    # (T, W)
        window_pos = np.minimum(reach, ends[:, None] - 1)
        inside = (reach < ends[:, None]) & (offsets < sizes[:, None, None])
        # softmax over each window's norms, shifted by that window's max
        window_rows = rows[window_pos]
        logits = np.where(inside, pi[window_rows], -np.inf)  # (B, T, W)
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        weights = e / e.sum(axis=2, keepdims=True)
        probs = (weights[:, :, None, :] @ inner_sq[window_rows])[:, :, 0, :]
        # max-pool each sentence's windows
        pooled = np.maximum.reduceat(probs, starts, axis=1)
        pooled = pooled.transpose(1, 0, 2).reshape(N, R)

    representation = pooled if pooled_mask is None else pooled * pooled_mask

    tape = BatchTape(
        lengths=lengths,
        starts=starts,
        ids=ids,
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
        representation=representation,
    )
    return representation, tape


def forward_sentence(
    token_ids: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, SentenceTape]:
    """Batch-of-one forward pass; returns (representation, tape)."""
    reps, tape = forward_batch([token_ids], params, config, train, rng)
    return reps[0], tape.sentence(0)


def represent(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> np.ndarray:
    """Deterministic (eval mode) sentence representation."""
    reps, _ = forward_batch([token_ids], params, config)
    return reps[0]


def _word_states(ids: np.ndarray, params: ParameterSet) -> list[WordState]:
    from .embedding import assemble_word_vector, normalize_word

    return [
        normalize_word(assemble_word_vector(params.amplitude[i], params.phase[i]))
        for i in ids
    ]


def represent_dense(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> np.ndarray:
    """Reference representation via explicit density matrices.

    Composes slide_windows -> local_mixture -> measure_all -> max_pool
    per window size (or one global mixture without pooling), exactly the
    modular dataflow the factored path re-expresses.
    """
    ids = _truncate(token_ids, config)
    states = _word_states(ids, params)
    mset = MeasurementSet(params.measurements)
    if config.mixture == GLOBAL_MIXTURE:
        rho = mixture.global_mixture(states)
        return measure_all([rho], mset)[:, 0]
    blocks = []
    for width in config.window_sizes:
        windows = [
            mixture.local_mixture(w) for w in mixture.slide_windows(states, width)
        ]
        probs = measure_all(windows, mset)
        pooled, _ = max_pool(probs)
        blocks.append(pooled)
    return np.concatenate(blocks)


def score(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero whenever either representation is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"representations differ in shape: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def triplet_loss(s_pos: float, s_neg: float, margin: float) -> float:
    """Hinge on the ranking gap: max(0, margin - s_pos + s_neg)."""
    return max(0.0, margin - s_pos + s_neg)
