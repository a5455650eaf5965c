"""Density matrices for word windows.

A window of words becomes a mixed quantum state: each unit word state
contributes its rank-one projector, weighted either uniformly (global
mixture over a whole sentence) or by a softmax over the word norms
(local mixture, the default for sliding windows).  The resulting matrix
is Hermitian, unit-trace and positive semidefinite by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .embedding import WordState
from .errors import ConfigError, DegenerateInputError, ShapeError
from .linalg import hermitian_eig, hermitize

TRACE_ATOL = 1e-9
HERM_ATOL = 1e-9
PSD_MIN_EIG = -1e-8


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


def validate_density_matrix(
    rho: np.ndarray,
    check_psd: bool = True,
    trace_atol: float = TRACE_ATOL,
    herm_atol: float = HERM_ATOL,
    min_eig: float = PSD_MIN_EIG,
) -> None:
    """Raise ShapeError/ValueError when rho is not a valid density matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    herm = float(np.linalg.norm(rho - rho.conj().T))
    if herm > herm_atol:
        raise ValueError(f"not Hermitian: deviation {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"trace {tr} differs from 1")
    if check_psd:
        smallest = hermitian_eig(rho).values[-1]
        if smallest < min_eig:
            raise ValueError(f"not PSD: min eigenvalue {smallest:.3e}")
