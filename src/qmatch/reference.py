"""The explicit density-matrix route, kept as the reference oracle.

Each word is a particle in its own state: ``normalize_word`` splits the
vector ``assemble_word_vector`` builds from its amplitude and phase rows
into a unit state and the norm it was stripped of (a ``WordState``).
A window of words becomes a mixed quantum state: each unit word state
contributes its rank-one projector, weighted either uniformly (global
mixture over a whole sentence) or by a softmax over the word norms
(local mixture, the default for sliding windows).  The resulting matrix
is Hermitian, unit-trace and positive semidefinite by construction.  A
measurement, one unit row |v> of the (k, n) ``ParameterSet.measurements``
array, reads the Born probability <v|rho|v> off it.

``represent_dense`` composes these steps and materialises every window's
density matrix.  The production path, ``matcher.forward_batch``, computes
the same numbers from <v|rho|v> = sum_i p(w_i) |<v|w_i>|^2 without
building rho; the test suite pins their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import DEGENERATE_WEIGHT, ZERO_NORM, row_norms, uniform_state
from .errors import ConfigError, DegenerateInputError, DomainError, ShapeError
from .linalg import hermitize
from .model import GLOBAL_MIXTURE, UNIT_NORM_ATOL, ParameterSet, TrainerConfig


@dataclass
class WordState:
    """Unit-norm complex state plus the norm it was stripped of."""

    state: np.ndarray
    weight: float


def assemble_word_vector(amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Combine one amplitude row and one phase row into a complex vector."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if amplitudes.shape != phases.shape or amplitudes.ndim != 1:
        raise ShapeError(
            f"amplitude/phase rows must be matching vectors, "
            f"got {amplitudes.shape} and {phases.shape}"
        )
    return amplitudes * np.exp(1j * phases)


def normalize_word(vector: np.ndarray) -> WordState:
    """Split a raw word vector into a unit state and its norm.

    A numerically zero vector (padding, or fully dropped out) has no
    direction; it becomes the uniform state with weight DEGENERATE_WEIGHT
    so downstream softmax weighting treats it as negligible.
    """
    vector = np.asarray(vector, dtype=np.complex128)
    if vector.ndim != 1 or vector.size == 0:
        raise ShapeError(f"expected a non-empty vector, got shape {vector.shape}")
    weight = float(row_norms(vector[None, :])[0])
    if weight < ZERO_NORM:
        return WordState(state=uniform_state(vector.size), weight=DEGENERATE_WEIGHT)
    return WordState(state=vector / weight, weight=weight)


def slide_windows(items: Sequence, width: int) -> list[Sequence]:
    """All windows [j, min(j+width, L)) for j in 0..L-1.

    Every position starts a window, so a sentence of length L always
    yields L windows; the trailing ones shrink instead of padding.
    """
    if width < 1:
        raise ConfigError(f"window width must be >= 1, got {width}")
    n = len(items)
    if n == 0:
        raise DegenerateInputError("cannot slide windows over an empty sentence")
    return [items[j : min(j + width, n)] for j in range(n)]


def _stack_states(states: Sequence[WordState]) -> tuple[np.ndarray, np.ndarray]:
    if len(states) == 0:
        raise DegenerateInputError("mixture of zero states is undefined")
    mat = np.stack([np.asarray(s.state, dtype=np.complex128) for s in states])
    if mat.ndim != 2:
        raise ShapeError("word states must be vectors")
    weights = np.array([s.weight for s in states], dtype=np.float64)
    return mat, weights


def softmax_weights(norms: np.ndarray) -> np.ndarray:
    """exp(norms) normalised to sum 1, stabilised by subtracting the max."""
    norms = np.asarray(norms, dtype=np.float64)
    e = np.exp(norms - norms.max())
    return e / e.sum()


def _mix(states_matrix: np.ndarray, probs: np.ndarray) -> np.ndarray:
    # sum_i p_i |w_i><w_i|  ==  (W^T diag(p) conj(W)) for stacked rows W
    rho = (states_matrix.T * probs) @ states_matrix.conj()
    # enforce exact Hermitian symmetry against FMA roundoff
    return hermitize(rho)


def global_mixture(states: Sequence[WordState]) -> np.ndarray:
    """Equal-weight mixture of word-state projectors, one per word."""
    mat, _ = _stack_states(states)
    probs = np.full(mat.shape[0], 1.0 / mat.shape[0])
    return _mix(mat, probs)


def local_mixture(states: Sequence[WordState]) -> np.ndarray:
    """Norm-softmax mixture: p_i proportional to exp(word weight)."""
    mat, weights = _stack_states(states)
    return _mix(mat, softmax_weights(weights))


def measure_all(windows: Sequence[np.ndarray], measurements: np.ndarray) -> np.ndarray:
    """Probability matrix P with P[k, j] = <v_k|rho_j|v_k> for the unit
    rows v_k of ``measurements`` (k, n), shape (k, L), clipped to [0, 1]."""
    v = np.asarray(measurements, dtype=np.complex128)
    if v.ndim != 2:
        raise ShapeError(f"measurements must be 2-D, got {v.shape}")
    stack = np.stack([np.asarray(w, dtype=np.complex128) for w in windows])
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeError(f"windows must stack to (L, n, n), got {stack.shape}")
    if stack.shape[1] != v.shape[1]:
        raise ShapeError(
            f"window dimension {stack.shape[1]} does not match "
            f"measurements {v.shape[1]}"
        )
    if np.any(np.abs(row_norms(v) - 1.0) > UNIT_NORM_ATOL):
        raise DomainError("measurement rows must be unit norm")
    probs = np.einsum("ka,jab,kb->kj", v.conj(), stack, v).real
    return np.clip(probs, 0.0, 1.0)


def represent_dense(
    token_ids: np.ndarray, params: ParameterSet, config: TrainerConfig
) -> np.ndarray:
    """Reference representation via explicit density matrices.

    Composes slide_windows -> local_mixture -> measure_all -> max over
    windows per window size (or one global mixture without pooling),
    exactly the modular dataflow the factored path re-expresses.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"token ids must be 1-D, got shape {ids.shape}")
    states = [
        normalize_word(assemble_word_vector(params.amplitude[i], params.phase[i]))
        for i in ids[: config.max_sentence_len]
    ]
    if config.mixture == GLOBAL_MIXTURE:
        return measure_all([global_mixture(states)], params.measurements)[:, 0]
    blocks = []
    for width in config.window_sizes:
        windows = [local_mixture(w) for w in slide_windows(states, width)]
        blocks.append(measure_all(windows, params.measurements).max(axis=1))
    return np.concatenate(blocks)
