"""Complex linear algebra for small Hermitian problems.

Conventions: vectors are 1-D ``complex128`` arrays, operators are square
2-D ``complex128`` arrays, and eigenvectors are returned as matrix
columns.  The eigensolver is LAPACK's Hermitian driver
(``numpy.linalg.eigh``) behind the package's own contract: a Hermitian
check, a finiteness check, descending eigenvalues and errors from
``qmatch.errors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# Relative Frobenius tolerance accepted when checking Hermitian symmetry.
HERMITIAN_ATOL = 1e-8


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a


def outer_product(v: np.ndarray) -> np.ndarray:
    """Rank-one projector-style outer product |v><v|.

    Element (i, j) is ``v[i] * conj(v[j])``.  Real and imaginary parts
    are combined explicitly (rather than via complex multiply, which may
    use FMA) so that (j, i) is the conjugate of (i, j) bit-exactly and
    the diagonal is exactly real.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {v.shape}")
    re, im = v.real, v.imag
    return (np.outer(re, re) + np.outer(im, im)) + 1j * (
        np.outer(im, re) - np.outer(re, im)
    )


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermitian_deviation(a: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part, ||A - A^dagger||_F."""
    a = _as_square(a)
    return float(np.linalg.norm(a - a.conj().T))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average away roundoff asymmetry: (A + A^dagger) / 2."""
    a = _as_square(a)
    return 0.5 * (a + a.conj().T)


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending, real) and matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.vectors
        return (v * self.values) @ v.conj().T


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues sorted descending with eigenvectors as columns.
    Raises DomainError for non-Hermitian input, and NumericError for
    non-finite entries (which LAPACK would turn into NaN eigenvalues
    silently) or when LAPACK reports a failure.
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite entries in matrix passed to hermitian_eig")
    tol = HERMITIAN_ATOL * max(1.0, frobenius_norm(a))
    deviation = hermitian_deviation(a)
    if deviation > tol:
        raise DomainError(
            f"matrix is not Hermitian: deviation {deviation:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values[::-1], vectors=vectors[:, ::-1])


def matrix_function(
    a: np.ndarray, f: Callable[[np.ndarray], np.ndarray], eigen_floor: float = 0.0
) -> np.ndarray:
    """Apply a scalar function to a Hermitian PSD matrix via its spectrum.

    Eigenvalues are clamped from below at ``eigen_floor`` before f is
    applied, which regularises log/inverse-style functions on nearly
    singular input.  The result is V f(Lambda) V^dagger.
    """
    eig = hermitian_eig(a)
    norm = max(1.0, frobenius_norm(a))
    if eig.values.min() < -HERMITIAN_ATOL * norm:
        raise DomainError(
            f"matrix is not positive semidefinite: min eigenvalue {eig.values.min():.3e}"
        )
    clamped = np.maximum(eig.values, eigen_floor)
    fvals = np.asarray(f(clamped), dtype=np.float64)
    if not np.all(np.isfinite(fvals)):
        raise NumericError("matrix function produced non-finite eigenvalues")
    return (eig.vectors * fvals) @ eig.vectors.conj().T


def complex_add_polar(
    r1: float, theta1: float, r2: float, theta2: float
) -> tuple[float, float]:
    """Add two complex numbers given in polar form, returning polar form.

    Magnitude: r = sqrt(r1^2 + r2^2 + 2 r1 r2 cos(theta2 - theta1)),
    evaluated in the half-angle form (r1+r2)^2 - 4 r1 r2 sin^2(d/2) so
    that aligned phases degenerate to plain real addition without
    roundoff.  Angle: atan2 of the rectangular components; a zero-length
    result takes theta = 0 by convention.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if r < 0.0 or not math.isfinite(r):
            raise DomainError(f"{name} must be a finite non-negative magnitude, got {r}")
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise DomainError("phases must be finite")
    delta = theta2 - theta1
    radicand = (r1 + r2) ** 2 - 4.0 * r1 * r2 * math.sin(0.5 * delta) ** 2
    r = math.sqrt(max(radicand, 0.0))
    if r == 0.0:
        return 0.0, 0.0
    re = r1 * math.cos(theta1) + r2 * math.cos(theta2)
    im = r1 * math.sin(theta1) + r2 * math.sin(theta2)
    return r, math.atan2(im, re)
