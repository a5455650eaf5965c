"""Trainable rank-one measurements over density matrices.

A measurement is a unit-norm complex vector |v>; applied to a density
matrix it yields the Born probability <v|rho|v>, a real number in [0, 1].
A MeasurementSet holds k such vectors as rows; applying all of them to
all windows of a sentence gives a k-by-L probability matrix which is
max-pooled over the window axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError

UNIT_NORM_ATOL = 1e-6
IMAG_RESIDUE_ATOL = 1e-9


@dataclass
class MeasurementSet:
    """k measurement vectors as rows of a (k, n) complex matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise ShapeError(f"measurement set must be 2-D, got {v.shape}")
        self.vectors = v

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)

    def renormalize(self) -> None:
        """Project every row back onto the unit sphere (in place)."""
        norms = self.row_norms()
        if np.any(norms < 1e-300):
            raise DomainError("cannot renormalize a zero measurement vector")
        self.vectors /= norms[:, None]


def init_measurements(k: int, dim: int) -> MeasurementSet:
    """Real one-hot rows e_(i mod dim); orthogonal whenever k <= dim."""
    if k < 1 or dim < 1:
        raise DomainError(f"need k >= 1 and dim >= 1, got k={k}, dim={dim}")
    vectors = np.zeros((k, dim), dtype=np.complex128)
    vectors[np.arange(k), np.arange(k) % dim] = 1.0
    return MeasurementSet(vectors)


def measure(rho: np.ndarray, v: np.ndarray) -> float:
    """Born probability <v|rho|v> of state v under density matrix rho."""
    rho = np.asarray(rho, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    if v.ndim != 1 or v.size != rho.shape[0]:
        raise ShapeError(f"state shape {v.shape} does not match matrix {rho.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise DomainError(f"measurement vector norm {norm} deviates from 1")
    value = complex(np.vdot(v, rho @ v))
    if abs(value.imag) > IMAG_RESIDUE_ATOL * max(1.0, abs(value.real)):
        raise DomainError(
            f"measurement outcome has imaginary residue {value.imag:.3e}; "
            "input is not Hermitian enough"
        )
    return float(min(max(value.real, 0.0), 1.0))


def measure_all(windows: Sequence[np.ndarray], mset: MeasurementSet) -> np.ndarray:
    """Probability matrix P with P[k, j] = <v_k|rho_j|v_k>, shape (k, L)."""
    stack = np.stack([np.asarray(w, dtype=np.complex128) for w in windows])
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ShapeError(f"windows must stack to (L, n, n), got {stack.shape}")
    if stack.shape[1] != mset.dim:
        raise ShapeError(
            f"window dimension {stack.shape[1]} does not match measurements {mset.dim}"
        )
    norms = mset.row_norms()
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_ATOL):
        raise DomainError("measurement rows must be unit norm")
    v = mset.vectors
    probs = np.einsum("ka,jab,kb->kj", v.conj(), stack, v).real
    return np.clip(probs, 0.0, 1.0)


def max_pool(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool each measurement's probabilities over windows.

    Returns (pooled values, window indices); ties resolve to the lowest
    window index, and the indices are what the backward pass routes
    gradient through.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] == 0:
        raise ShapeError(f"probability matrix must be (k, L>=1), got {probs.shape}")
    winners = probs.argmax(axis=1)
    return probs[np.arange(probs.shape[0]), winners], winners
