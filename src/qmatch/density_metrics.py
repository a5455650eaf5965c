"""Distance and similarity measures between density matrices, plus an
empirical axiom auditor.

The auditor samples random density-matrix triples and checks the four
classical axioms (non-negativity, identity of indiscernibles, symmetry,
triangle inequality).  Similarity-style measures are audited with
identity read as self-maximum — s(a,a) >= s(a,b) — and the triangle
axiom applied to the induced squared distance
s(a,a) + s(b,b) - 2 s(a,b); divergence/distance-style measures are
audited directly.  A violation flag is only raised when a concrete
counterexample is stored and re-verified beyond tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import hermitize, matrix_function, outer_product

AUDIT_TOL = 1e-9
LOG_EIGEN_FLOOR = 1e-12

SIMILARITY = "similarity"
DIVERGENCE = "divergence"
DISTANCE = "distance"


def _check_pair(rho_a: np.ndarray, rho_b: np.ndarray) -> None:
    if rho_a.shape != rho_b.shape:
        raise ShapeError(
            f"density matrices differ in shape: {rho_a.shape} vs {rho_b.shape}"
        )
    if rho_a.ndim != 2 or rho_a.shape[0] != rho_a.shape[1]:
        raise ShapeError(f"expected square matrices, got {rho_a.shape}")


def trace_inner_product(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Similarity tr(rho_a rho_b); real for Hermitian inputs."""
    _check_pair(rho_a, rho_b)
    value = np.trace(rho_a @ rho_b)
    if abs(value.imag) > 1e-9:
        raise DomainError(
            f"trace inner product has imaginary residue {value.imag:.3e}; "
            "inputs are not Hermitian"
        )
    return float(value.real)


def _two_state_family(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha P1 + (1-alpha) P2, P1, P2) for a fixed complex orthonormal pair."""
    theta, psi = 0.3, 0.7
    phi1 = np.array([np.cos(theta), np.sin(theta) * np.exp(1j * psi)])
    phi2 = np.array([-np.sin(theta) * np.exp(-1j * psi), np.cos(theta)])
    p1, p2 = outer_product(phi1), outer_product(phi2)
    return alpha * p1 + (1.0 - alpha) * p2, p1, p2


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


def _log_density(rho: np.ndarray) -> np.ndarray:
    return matrix_function(rho, np.log, eigen_floor=LOG_EIGEN_FLOOR)


def vn_divergence(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Relative-entropy style divergence tr(rho_a (log rho_a - log rho_b)).

    Eigenvalues are floored at 1e-12 inside the logarithm, so support
    mismatch yields a large finite value instead of +inf (regularized
    variant).  Asymmetric in its arguments by construction.  Bit-identical
    inputs short-circuit to 0, skipping both matrix logarithms.
    """
    _check_pair(rho_a, rho_b)
    if np.array_equal(rho_a, rho_b):
        return 0.0
    diff = _log_density(rho_a) - _log_density(rho_b)
    value = np.trace(rho_a @ diff)
    return float(value.real)


def sym_vn(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Symmetrized divergence: the mean of both directions."""
    return 0.5 * (vn_divergence(rho_a, rho_b) + vn_divergence(rho_b, rho_a))


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Closeness F = (tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2 in [0, 1].

    The value is symmetric analytically, but the two evaluation orders
    round differently, and the square root amplifies eigenvalue noise
    near zero.  To keep the implementation exactly symmetric the
    arguments are put in a canonical order before evaluating, and
    bit-identical inputs short-circuit to 1.
    """
    _check_pair(rho_a, rho_b)
    order = rho_a.tobytes() <= rho_b.tobytes()
    if not order:
        rho_a, rho_b = rho_b, rho_a
    elif np.array_equal(rho_a, rho_b):
        return 1.0
    sqrt_a = matrix_function(rho_a, np.sqrt, eigen_floor=0.0)
    inner = hermitize(sqrt_a @ rho_b @ sqrt_a)
    root = matrix_function(inner, np.sqrt, eigen_floor=0.0)
    value = float(np.trace(root).real) ** 2
    return min(max(value, 0.0), 1.0)


def sqrt_fidelity_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """sqrt(1 - F): a genuine metric, unlike 1 - F itself."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho_a, rho_b))))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Mixture of 1..dim random pure states with Dirichlet(1,..,1) weights."""
    m = int(rng.integers(1, dim + 1))
    weights = rng.dirichlet(np.ones(m))
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        rho += w * outer_product(vec)
    return hermitize(rho)


@dataclass
class AxiomViolation:
    axiom: str
    gap: float                      # how far past tolerance the check failed
    trial: int                      # -1 for injected seeded cases
    matrices: list[np.ndarray]
    note: str = ""


@dataclass
class AxiomResult:
    checked: int = 0
    violations: list[AxiomViolation] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    @property
    def status(self) -> str:
        return "violated" if self.violated else "holds"


@dataclass
class MetricAuditReport:
    metric: str
    kind: str
    trials: int
    dims: tuple[int, ...]
    seed: int
    non_negativity: AxiomResult = field(default_factory=AxiomResult)
    identity: AxiomResult = field(default_factory=AxiomResult)
    symmetry: AxiomResult = field(default_factory=AxiomResult)
    triangle: AxiomResult = field(default_factory=AxiomResult)

    def axiom(self, name: str) -> AxiomResult:
        return {
            "non_negativity": self.non_negativity,
            "identity": self.identity,
            "symmetry": self.symmetry,
            "triangle": self.triangle,
        }[name]


MetricFn = Callable[[np.ndarray, np.ndarray], float]

METRIC_KINDS: dict[str, str] = {
    "trace_inner_product": SIMILARITY,
    "vn_divergence": DIVERGENCE,
    "sym_vn": DIVERGENCE,
    "fidelity": SIMILARITY,
    "sqrt_fidelity_distance": DISTANCE,
}

METRIC_FNS: dict[str, MetricFn] = {
    "trace_inner_product": trace_inner_product,
    "vn_divergence": vn_divergence,
    "sym_vn": sym_vn,
    "fidelity": fidelity,
    "sqrt_fidelity_distance": sqrt_fidelity_distance,
}


def _injected_cases(metric_name: str) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Seeded triples known to expose violations (re-verified like any trial)."""
    if metric_name != "trace_inner_product":
        return []
    # The two-state family at alpha = 0.75 rates rho_b above rho_a's own
    # self-similarity.
    return [_two_state_family(0.75)]


def _record(result: AxiomResult, axiom: str, gap: float, trial: int,
            matrices: list[np.ndarray], recheck: Callable[[], float],
            note: str = "") -> None:
    """Store a violation only if re-evaluation reproduces it past tolerance."""
    if gap > AUDIT_TOL and recheck() > AUDIT_TOL:
        result.violations.append(
            AxiomViolation(axiom=axiom, gap=gap, trial=trial,
                           matrices=[m.copy() for m in matrices], note=note)
        )


def _audit_triple(
    report: MetricAuditReport,
    fn: MetricFn,
    kind: str,
    trial: int,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> None:
    d_ab, d_ba = fn(a, b), fn(b, a)
    d_aa, d_bb = fn(a, a), fn(b, b)

    report.symmetry.checked += 1
    gap = abs(d_ab - d_ba)
    _record(report.symmetry, "symmetry", gap, trial, [a, b],
            lambda: abs(fn(a, b) - fn(b, a)))

    if kind == SIMILARITY:
        report.non_negativity.checked += 1
        _record(report.non_negativity, "non_negativity", -d_ab, trial, [a, b],
                lambda: -fn(a, b), note="similarity went negative")
        # identity as self-maximum: nothing may beat a matrix's own score
        report.identity.checked += 1
        gap = max(d_ab - d_aa, d_ab - d_bb)
        _record(report.identity, "identity", gap, trial, [a, b],
                lambda: max(fn(a, b) - fn(a, a), fn(a, b) - fn(b, b)),
                note="cross-similarity exceeds self-similarity")
        # triangle on the induced squared distance; the recheck recomputes
        def induced(x, y):
            return fn(x, x) + fn(y, y) - 2.0 * fn(x, y)
        d_cc, d_ac, d_bc = fn(c, c), fn(a, c), fn(b, c)
        report.triangle.checked += 1
        gap = ((d_aa + d_cc - 2.0 * d_ac) - (d_aa + d_bb - 2.0 * d_ab)
               - (d_bb + d_cc - 2.0 * d_bc))
        _record(report.triangle, "triangle", gap, trial, [a, b, c],
                lambda: induced(a, c) - induced(a, b) - induced(b, c),
                note="induced squared distance fails subadditivity")
    else:
        report.non_negativity.checked += 1
        _record(report.non_negativity, "non_negativity", -d_ab, trial, [a, b],
                lambda: -fn(a, b))
        # identity: d(a,a) must vanish
        report.identity.checked += 1
        gap = max(abs(d_aa), abs(d_bb))
        _record(report.identity, "identity", gap, trial, [a, b],
                lambda: max(abs(fn(a, a)), abs(fn(b, b))),
                note="nonzero self-distance")
        report.triangle.checked += 1
        gap = fn(a, c) - d_ab - fn(b, c)
        _record(report.triangle, "triangle", gap, trial, [a, b, c],
                lambda: fn(a, c) - fn(a, b) - fn(b, c))


def audit_metric(
    metric: str | MetricFn,
    trials: int,
    dims: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
    kind: str | None = None,
) -> MetricAuditReport:
    """Property-test one measure against the four axioms.

    ``metric`` may be a registered name or a callable (then ``kind`` is
    required).  Known seeded counterexamples are injected ahead of the
    random trials and marked with trial index -1.
    """
    if callable(metric):
        fn = metric
        name = getattr(metric, "__name__", "custom")
        if kind is None:
            raise DomainError("kind is required for custom metric callables")
    else:
        name = metric
        if name not in METRIC_FNS:
            raise DomainError(
                f"unknown metric {name!r}; choose from {sorted(METRIC_FNS)}"
            )
        fn = METRIC_FNS[name]
        kind = METRIC_KINDS[name] if kind is None else kind
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not dims or any(d < 2 for d in dims):
        raise DomainError("dims must be dimensions >= 2")

    report = MetricAuditReport(
        metric=name, kind=kind, trials=trials, dims=tuple(dims), seed=seed
    )
    for a, b, c in _injected_cases(name):
        _audit_triple(report, fn, kind, -1, a, b, c)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        dim = int(dims[trial % len(dims)])
        a = random_density(rng, dim)
        b = random_density(rng, dim)
        c = random_density(rng, dim)
        _audit_triple(report, fn, kind, trial, a, b, c)
    return report


# Informative cost notes for the report table (matrix dimension d).
_COMPLEXITY_NOTES = {
    "trace_inner_product": "O(d^2) via elementwise product",
    "vn_divergence": "O(d^3) matrix logarithms",
    "sym_vn": "O(d^3), two directed divergences",
    "fidelity": "O(d^3) matrix square roots",
    "sqrt_fidelity_distance": "O(d^3) matrix square roots",
}

_AXIOM_COLUMNS = ("non_negativity", "identity", "symmetry", "triangle")


def render_audit_table(reports: list[MetricAuditReport]) -> str:
    """Text table: one row per metric, one column per audited axiom,
    plus differentiability (not audited) and an informative cost column."""
    headers = [
        "metric", "kind", "non-negativity", "identity", "symmetry",
        "triangle", "differentiability", "complexity",
    ]
    rows = [headers]
    for rep in reports:
        cells = [rep.metric, rep.kind]
        for axiom in _AXIOM_COLUMNS:
            res = rep.axiom(axiom)
            mark = "-" if res.violated else "+"
            cells.append(f"{mark} ({res.status})")
        cells.append("n/a")
        cells.append(_COMPLEXITY_NOTES.get(rep.metric, "n/a"))
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def report_to_dict(rep: MetricAuditReport) -> dict:
    """JSON-friendly view; counterexample matrices serialized as nested lists."""
    out = {
        "metric": rep.metric,
        "kind": rep.kind,
        "trials": rep.trials,
        "dims": list(rep.dims),
        "seed": rep.seed,
        "axioms": {},
    }
    for axiom in _AXIOM_COLUMNS:
        res = rep.axiom(axiom)
        out["axioms"][axiom] = {
            "status": res.status,
            "checked": res.checked,
            "violations": [
                {
                    "gap": v.gap,
                    "trial": v.trial,
                    "note": v.note,
                    "matrices": [
                        {"re": m.real.tolist(), "im": m.imag.tolist()}
                        for m in v.matrices
                    ],
                }
                # keep reports bounded: the first few reproducers suffice
                for v in res.violations[:5]
            ],
        }
    return out
