"""Complex linear algebra for small Hermitian problems.

Conventions: vectors are 1-D ``complex128`` arrays, operators are square
``complex128`` arrays, and eigenvectors are returned as matrix columns.
The eigensolver is LAPACK's Hermitian driver (``numpy.linalg.eigh``)
behind the package's own contract: a Hermitian check, a finiteness check,
numpy's ``(values, vectors)`` pair with the eigenvalues descending, and
errors from ``qmatch.errors``.

``outer_product`` also takes a ``(..., d)`` stack of vectors, each
vector's projector bit-identical to what it gets alone.  ``hermitize``,
``hermitian_eig`` and ``matrix_function`` also take a ``(..., d, d)``
stack and treat every matrix in it as its own problem:
every check applies matrix by matrix, an error names the first offending
matrix's stack index, and the whole stack goes to LAPACK in one call.  A
single ``(d, d)`` matrix is a stack of one, and each matrix's result is
bit-identical to what it gets alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NumericError, ShapeError

# Relative Frobenius tolerance accepted when checking Hermitian symmetry.
HERMITIAN_ATOL = 1e-8


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(
            f"matrix must be square or a stack of square matrices, got shape {a.shape}"
        )
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def _first(bad: np.ndarray) -> tuple[tuple, str]:
    """The first matrix a per-matrix mask flags: its stack index and its
    name, ``matrix`` for a single matrix and ``matrix 3`` (or ``matrix 1, 2``)
    within a stack."""
    index = tuple(np.argwhere(bad)[0])
    return index, " ".join(["matrix", ", ".join(str(i) for i in index)]).rstrip()


def outer_product(v: np.ndarray) -> np.ndarray:
    """Rank-one projector-style outer product |v><v| of a vector, or of
    each vector of a ``(..., d)`` stack.

    Element (i, j) is ``v[i] * conj(v[j])``.  Real and imaginary parts
    are combined explicitly (rather than via complex multiply, which may
    use FMA) so that (j, i) is the conjugate of (i, j) bit-exactly and
    the diagonal is exactly real.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim < 1:
        raise ShapeError(f"expected a vector or a stack, got shape {v.shape}")
    re, im = v.real[..., :, None], v.imag[..., :, None]
    re_t, im_t = v.real[..., None, :], v.imag[..., None, :]
    return (re * re_t + im * im_t) + 1j * (im * re_t - re * im_t)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average away roundoff asymmetry: (A + A^dagger) / 2."""
    a = _as_square(a)
    return 0.5 * (a + _dagger(a))


def _scale(a: np.ndarray) -> np.ndarray:
    """Each matrix's scale ``max(1, ||A||_F)``, which sets its tolerances."""
    return np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    stack, by LAPACK (``numpy.linalg.eigh``).

    Returns numpy's ``(values, vectors)`` pair, ``(..., d)`` real values
    sorted descending and ``(..., d, d)`` matching orthonormal columns.
    Raises DomainError for a non-Hermitian matrix (deviation past
    ``HERMITIAN_ATOL * max(1, ||A||_F)``), and NumericError for non-finite
    entries (which LAPACK would turn into NaN eigenvalues silently) or when
    LAPACK reports a failure.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=(-2, -1))
        raise NumericError(
            f"non-finite entries in {_first(bad)[1]} passed to hermitian_eig"
        )
    dagger = _dagger(a)
    deviation = np.linalg.norm(a - dagger, axis=(-2, -1))
    # every tolerance is at least HERMITIAN_ATOL, so norms are needed only
    # when some deviation passes that
    if (deviation > HERMITIAN_ATOL).any():
        tol = HERMITIAN_ATOL * _scale(a)
        bad = deviation > tol
        if bad.any():
            i, name = _first(bad)
            raise DomainError(
                f"{name} is not Hermitian: deviation {deviation[i]:.3e} "
                f"exceeds tolerance {tol[i]:.3e}"
            )
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + dagger))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return values[..., ::-1], vectors[..., ::-1]


def matrix_function(
    a: np.ndarray, f: Callable[[np.ndarray], np.ndarray], eigen_floor: float = 0.0
) -> np.ndarray:
    """Apply a scalar function to a Hermitian PSD matrix (or to each matrix
    of a stack) via its spectrum.

    Raises DomainError when an eigenvalue lies below
    ``-HERMITIAN_ATOL * max(1, ||A||_F)``.  Eigenvalues are clamped from
    below at ``eigen_floor`` before f is applied, which regularises
    log/inverse-style functions on nearly singular input.  The result is
    V f(Lambda) V^dagger.
    """
    values, vectors = hermitian_eig(a)
    smallest = values.min(axis=-1)
    # as in hermitian_eig: a scale is needed only past -HERMITIAN_ATOL
    if (smallest < -HERMITIAN_ATOL).any():
        bad = smallest < -HERMITIAN_ATOL * _scale(_as_square(a))
        if bad.any():
            i, name = _first(bad)
            raise DomainError(
                f"{name} is not positive semidefinite: min eigenvalue "
                f"{smallest[i]:.3e}"
            )
    fvals = np.asarray(f(np.maximum(values, eigen_floor)), dtype=np.float64)
    if not np.isfinite(fvals).all():
        bad = ~np.isfinite(fvals).all(axis=-1)
        raise NumericError(
            f"matrix function produced non-finite eigenvalues for {_first(bad)[1]}"
        )
    return (vectors * fvals[..., None, :]) @ _dagger(vectors)
