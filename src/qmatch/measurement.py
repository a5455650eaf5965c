"""Trainable rank-one measurements.

A measurement is a unit-norm complex vector |v>; applied to a density
matrix it yields the Born probability <v|rho|v>, a real number in [0, 1].
A MeasurementSet holds k such vectors as rows.  The matcher applies them
through the factored identity (see ``matcher``); ``reference`` applies
them to explicit density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import ZERO_NORM, row_norms
from .errors import DomainError, ShapeError

UNIT_NORM_ATOL = 1e-6


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

    def renormalize(self) -> None:
        """Project every row back onto the unit sphere (in place)."""
        norms = row_norms(self.vectors)
        if np.any(norms < ZERO_NORM):
            raise DomainError("cannot renormalize a zero measurement vector")
        self.vectors /= norms[:, None]


def init_measurements(k: int, dim: int) -> MeasurementSet:
    """Real one-hot rows e_(i mod dim); orthogonal whenever k <= dim."""
    if k < 1 or dim < 1:
        raise DomainError(f"need k >= 1 and dim >= 1, got k={k}, dim={dim}")
    vectors = np.zeros((k, dim), dtype=np.complex128)
    vectors[np.arange(k), np.arange(k) % dim] = 1.0
    return MeasurementSet(vectors)
