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
* ``forward_sentence`` uses the factored identity
  <v|rho|v> = sum_i p(w_i) |<v|w_i>|^2, never building rho; each
  window's softmax is shifted by its own max norm, so no gap overflows.

The factored route is the production path: the analytic backward pass
differentiates its tape, and ``interpret`` reads its match maps from the
same tape.  The dense route is kept as a reference and the test suite
pins their agreement.
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
        return x, None
    if rng is None:
        raise ConfigError("dropout in train mode needs a random generator")
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask, mask


@dataclass
class SentenceTape:
    """Everything the backward pass needs about one forward call."""

    ids: np.ndarray              # (L,) token ids after truncation
    emb_mask: np.ndarray | None  # (L, n) dropout mask on amplitude rows
    amp_eff: np.ndarray          # (L, n) masked amplitude rows
    eiph: np.ndarray             # (L, n) exp(i * phase)
    alive: np.ndarray            # (L,) False where the row degenerated
    pi: np.ndarray               # (L,) word weights actually used
    states: np.ndarray           # (L, n) unit states
    inner: np.ndarray            # (L, k) <v_k|w_i>
    inner_sq: np.ndarray         # (L, k) |<v_k|w_i>|^2
    # B window sizes, widest W, window j starts at word j; B = W = 0 if global
    window_pos: np.ndarray       # (L, W) word at each window offset (clipped)
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


def forward_sentence(
    token_ids: np.ndarray,
    params: ParameterSet,
    config: TrainerConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, SentenceTape]:
    """Factored forward pass; returns (representation, tape)."""
    ids = _truncate(token_ids, config)
    L = ids.size
    n = params.dim
    k = params.k

    amp = params.amplitude[ids]
    amp_eff, emb_mask = apply_dropout(
        amp, config.dropout_rate, rng, train, config.dropout_is_keep_prob
    )
    eiph = np.exp(1j * params.phase[ids])

    pi = np.linalg.norm(amp_eff, axis=1)
    alive = pi >= _ZERO_NORM
    states = np.empty((L, n), dtype=np.complex128)
    if alive.all():
        states[:] = (amp_eff / pi[:, None]) * eiph
    else:
        safe = np.where(alive, pi, 1.0)
        states[:] = (amp_eff / safe[:, None]) * eiph
        states[~alive] = uniform_state(n)
        pi = np.where(alive, pi, DEGENERATE_WEIGHT)

    inner = states @ params.measurements.conj().T        # (L, k)
    inner_sq = inner.real**2 + inner.imag**2             # |<v|w>|^2

    if config.mixture == GLOBAL_MIXTURE:
        pooled = inner_sq.mean(axis=0)
        window_pos = np.zeros((L, 0), dtype=np.int64)
        weights = np.zeros((0, L, 0))
        probs = np.zeros((0, L, k))
        winners = np.zeros((0, k), dtype=np.int64)
    else:
        sizes = np.asarray(config.window_sizes)
        offsets = np.arange(sizes.max())
        reach = np.arange(L)[:, None] + offsets              # (L, W)
        window_pos = np.minimum(reach, L - 1)
        inside = (reach < L) & (offsets < sizes[:, None, None])  # (B, L, W)
        # softmax over each window's norms, shifted by that window's max
        logits = np.where(inside, pi[window_pos], -np.inf)
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        weights = e / e.sum(axis=2, keepdims=True)
        probs = (weights[:, :, None, :] @ inner_sq[window_pos])[:, :, 0, :]
        winners = probs.argmax(axis=1)                   # ties -> lowest window
        pooled = probs.max(axis=1).ravel()

    representation, pooled_mask = apply_dropout(
        pooled, config.dropout_rate, rng, train, config.dropout_is_keep_prob
    )

    tape = SentenceTape(
        ids=ids,
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
        argmax=winners,
        pooled_mask=pooled_mask,
        representation=representation,
    )
    return representation, tape


def represent(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> np.ndarray:
    """Deterministic (eval mode) sentence representation."""
    rep, _ = forward_sentence(token_ids, params, config, train=False)
    return rep


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
