"""Closed-form oracles that only the tests call.

``complex_add_polar`` is polar-form complex addition, checked against
rectangular addition.  ``identity_counterexample_gap`` is the self-overlap
gap of the two-state family that the audit injects as the trace inner
product's identity counterexample.  ``pairwise_table`` is a measure's audit
table from one plain call per pair, the oracle the stacked tables are
pinned against; ``pairwise_measure`` makes it a registry row, which a test
installs in ``density_metrics._MEASURES`` to audit a plain function.
"""

import functools
import math

import numpy as np

from qmatch.density_metrics import _I, _J, _two_state_family, trace_inner_product
from qmatch.errors import DomainError


def complex_add_polar(
    r1: float, theta1: float, r2: float, theta2: float
) -> tuple[float, float]:
    """Add two complex numbers given in polar form, returning polar form.

    Magnitude: r = sqrt(r1^2 + r2^2 + 2 r1 r2 cos(d)), d = theta2 - theta1,
    evaluated in the half-angle form (r1+r2)^2 - 4 r1 r2 sin^2(d/2) while
    cos(d) >= 0, so that aligned phases degenerate to plain real addition
    without roundoff.  Past that the form would cancel, so near-opposite
    phases use (r1-r2)^2 + 4 r1 r2 cos^2(d/2), a sum of non-negative
    terms with cos(d/2) taken as sin((pi - d)/2).  Angle: atan2 of the
    rectangular components; a zero-length result takes theta = 0 by
    convention.
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if r < 0.0 or not math.isfinite(r):
            raise DomainError(f"{name} must be a finite non-negative magnitude, got {r}")
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise DomainError("phases must be finite")
    delta = theta2 - theta1
    half_sin_sq = math.sin(0.5 * delta) ** 2
    if half_sin_sq <= 0.5:
        radicand = (r1 + r2) ** 2 - 4.0 * r1 * r2 * half_sin_sq
    else:
        half_cos = math.sin(0.5 * (math.pi - delta))
        radicand = (r1 - r2) ** 2 + 4.0 * r1 * r2 * half_cos**2
    r = math.sqrt(max(radicand, 0.0))
    if r == 0.0:
        return 0.0, 0.0
    re = r1 * math.cos(theta1) + r2 * math.cos(theta2)
    im = r1 * math.sin(theta1) + r2 * math.sin(theta2)
    return r, math.atan2(im, re)


def identity_counterexample_gap(alpha: float) -> float:
    """Self-overlap gap tr(rho_a^2) - tr(rho_a rho_b) for the two-state family
    rho_a = alpha P1 + (1-alpha) P2, rho_b = P1 over an orthonormal pair.

    Equals 2*alpha^2 - 3*alpha + 1 = (alpha-1)(2*alpha-1); its sign change
    across alpha = 1/2 shows the trace inner product can rate a *different*
    matrix above a matrix's own self-similarity.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    rho_a, p1, _ = _two_state_family(alpha)
    return trace_inner_product(rho_a, rho_a) - trace_inner_product(rho_a, p1)


def pairwise_table(fn, mats: np.ndarray) -> np.ndarray:
    """``fn``'s audit table over an (n, 3, d, d) stack of trials: one plain
    call per trial and pair of ``density_metrics._PAIRS``."""
    return np.array([[fn(trio[i], trio[j]) for i, j in zip(_I, _J)] for trio in mats])


def pairwise_measure(kind: str, fn) -> tuple:
    """A ``density_metrics._MEASURES`` row that audits ``fn`` as ``kind``
    through ``pairwise_table``."""
    return kind, fn, functools.partial(pairwise_table, fn), "one plain call per pair"
