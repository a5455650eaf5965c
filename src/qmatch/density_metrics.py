"""Distance and similarity measures between density matrices, plus an
empirical axiom auditor.

The auditor draws random density-matrix triples (a, b, c) once and checks
every registered measure, as its registered kind, against four classical
axioms (non-negativity, identity of indiscernibles, symmetry, triangle
inequality).  Similarity-style measures read identity as self-maximum —
s(a,a) >= s(a,b) — and apply the triangle axiom to the induced squared
distance s(a,a) + s(b,b) - 2 s(a,b).  A measure's table holds its values
on every pair the axioms read, for one stack of a dimension's trials: stacked
work (each matrix decomposed once) equal to the plain function's values to
the bit.  Each axiom's gap is one array over all trials; a flagged trial's
violation is stored with that gap and the matrices it reads, so an audit
makes no plain call of a measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import hermitize, matrix_function, outer_product

AUDIT_TOL = 1e-9
REPORTED_VIOLATIONS = 5    # counterexamples kept per axiom
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


def _log_density(rho: np.ndarray) -> np.ndarray:
    return matrix_function(rho, np.log, eigen_floor=LOG_EIGEN_FLOOR)


def _directed_vn(
    rho_a: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> np.ndarray:
    """tr(rho_a (log_a - log_b)) for one pair or for a stack of pairs."""
    return np.trace(rho_a @ (log_a - log_b), axis1=-2, axis2=-1).real


def _vn_both_ways(rho_a: np.ndarray, rho_b: np.ndarray) -> list[float]:
    """[vn(a, b), vn(b, a)] from one logarithm of each matrix, both in one
    stacked call; bit-identical inputs skip the logarithms."""
    _check_pair(rho_a, rho_b)
    if np.array_equal(rho_a, rho_b):
        return [0.0, 0.0]
    pair = np.stack([rho_a, rho_b])
    logs = _log_density(pair)
    return _directed_vn(pair, logs, logs[::-1]).tolist()


def vn_divergence(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Relative-entropy style divergence tr(rho_a (log rho_a - log rho_b)).

    Eigenvalues are floored at 1e-12 inside the logarithm, so support
    mismatch yields a large finite value instead of +inf (regularized
    variant).  Asymmetric in its arguments by construction.  Bit-identical
    inputs short-circuit to 0, skipping both matrix logarithms.
    """
    return _vn_both_ways(rho_a, rho_b)[0]


def sym_vn(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Symmetrized divergence: the mean of both directions, which share
    one logarithm of each matrix."""
    ab, ba = _vn_both_ways(rho_a, rho_b)
    return 0.5 * (ab + ba)


def _fidelity_order(rho_a: np.ndarray, rho_b: np.ndarray) -> bool | None:
    """Whether fidelity evaluates the pair as given (False: swapped), or
    None when the inputs are bit-identical and F is exactly 1."""
    if rho_a.tobytes() > rho_b.tobytes():
        return False
    return None if np.array_equal(rho_a, rho_b) else True


def _root_trace(sqrt_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """tr sqrt(sqrt_a rho_b sqrt_a) for one pair or for a stack of pairs."""
    inner = hermitize(sqrt_a @ rho_b @ sqrt_a)
    root = matrix_function(inner, np.sqrt, eigen_floor=0.0)
    return np.trace(root, axis1=-2, axis2=-1).real


def _fidelity_value(root_trace: float) -> float:
    return min(max(root_trace ** 2, 0.0), 1.0)


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Closeness F = (tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)))^2 in [0, 1].

    The value is symmetric analytically, but the two evaluation orders
    round differently, and the square root amplifies eigenvalue noise
    near zero.  To keep the implementation exactly symmetric the
    arguments are put in a canonical order before evaluating, and
    bit-identical inputs short-circuit to 1.
    """
    _check_pair(rho_a, rho_b)
    order = _fidelity_order(rho_a, rho_b)
    if order is None:
        return 1.0
    if not order:
        rho_a, rho_b = rho_b, rho_a
    sqrt_a = matrix_function(rho_a, np.sqrt, eigen_floor=0.0)
    return _fidelity_value(float(_root_trace(sqrt_a, rho_b)))


def sqrt_fidelity_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """sqrt(1 - F): a genuine metric, unlike 1 - F itself."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho_a, rho_b))))


def random_densities(rng: np.random.Generator, dim: int, n: int) -> np.ndarray:
    """An (n, dim, dim) stack of mixtures of 1..dim random pure states with
    Dirichlet(1,..,1) weights, drawn as n state counts m, n rows of dim
    standard exponentials, then each state's real and imaginary parts; a
    matrix's first m exponentials over their sum weight its first m states."""
    m = rng.integers(1, dim + 1, size=(n, 1))
    w = rng.standard_exponential((n, dim))
    w[np.arange(dim) >= m] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    z = rng.standard_normal((n, dim, 2, dim))
    vec = z[..., 0, :] + 1j * z[..., 1, :]
    vec /= np.linalg.norm(vec, axis=-1, keepdims=True)
    proj = outer_product(vec)
    rho = np.zeros((n, dim, dim), dtype=np.complex128)
    for k in range(dim):  # Hermitian to the bit, as each real-weighted proj is
        rho += w[:, k, None, None] * proj[:, k]
    return rho


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


# The audited axioms in column order, each a field of ``MetricAuditReport``.
_AXIOM_COLUMNS = ("non_negativity", "identity", "symmetry", "triangle")


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
        if name not in _AXIOM_COLUMNS:
            raise KeyError(name)
        return getattr(self, name)


MetricFn = Callable[[np.ndarray, np.ndarray], float]
Table = Callable[[np.ndarray], np.ndarray]


# Seeded trials known to expose violations, as (n, 3, d, d) stacks audited
# like any trial: the two-state family at alpha = 0.75 rates rho_b above
# rho_a's own self-similarity.
_INJECTED = {"trace_inner_product": [np.array([_two_state_family(0.75)])]}

# Every pair any axiom reads, as a table's columns; pair "ab" is fn(a, b) of
# a trial's matrices (a, b, c) = (0, 1, 2).
_PAIRS = ("ab", "ba", "ac", "bc", "aa", "bb", "cc")
_I, _J = np.array([["abc".index(m) for m in pair] for pair in _PAIRS]).T
_BOTH_WAYS = (np.concatenate([_I, _J]), np.concatenate([_J, _I]))

# The axioms of each kind: (axiom, the pairs it reads, its gap over those
# pairs' values in that order, note).  A gap past AUDIT_TOL is a violation.
_Axiom = tuple[str, tuple[str, ...], Callable[..., float], str]

_SIMILARITY_AXIOMS: tuple[_Axiom, ...] = (
    ("symmetry", ("ab", "ba"), lambda ab, ba: abs(ab - ba), ""),
    ("non_negativity", ("ab",), lambda ab: -ab, "similarity went negative"),
    # identity as self-maximum: nothing may beat a matrix's own score
    ("identity", ("ab", "aa", "bb"), lambda ab, aa, bb: np.maximum(ab - aa, ab - bb),
     "cross-similarity exceeds self-similarity"),
    # triangle on the induced squared distance s(x,x) + s(y,y) - 2 s(x,y)
    ("triangle", ("aa", "bb", "cc", "ab", "ac", "bc"),
     lambda aa, bb, cc, ab, ac, bc: ((aa + cc - 2.0 * ac) - (aa + bb - 2.0 * ab)
                                     - (bb + cc - 2.0 * bc)),
     "induced squared distance fails subadditivity"),
)

_DISTANCE_AXIOMS: tuple[_Axiom, ...] = (
    ("symmetry", ("ab", "ba"), lambda ab, ba: abs(ab - ba), ""),
    ("non_negativity", ("ab",), lambda ab: -ab, ""),
    # identity: d(a,a) must vanish
    ("identity", ("aa", "bb"), lambda aa, bb: np.maximum(abs(aa), abs(bb)),
     "nonzero self-distance"),
    ("triangle", ("ab", "ac", "bc"), lambda ab, ac, bc: ac - ab - bc, ""),
)


def _audit_triple(report: MetricAuditReport, trial: int, trio: np.ndarray,
                  flagged: list[tuple[_Axiom, float]]) -> None:
    """Store one trial's violations: each flagged axiom with its table gap
    and copies of the matrices its pairs read."""
    named = dict(zip("abc", trio))
    for (axiom, pairs, _, note), gap in flagged:
        matrices = [named[m].copy() for m in sorted(set("".join(pairs)))]
        report.axiom(axiom).violations.append(AxiomViolation(
            axiom=axiom, gap=gap, trial=trial, matrices=matrices, note=note
        ))


def _vn_table(mats: np.ndarray, i: np.ndarray = _I, j: np.ndarray = _J) -> np.ndarray:
    """vn_divergence over pairs (i, j), by default ``_PAIRS``, for each trial
    of an (n, 3, d, d) stack, from one logarithm per matrix."""
    logs = _log_density(mats)
    values = _directed_vn(mats[:, i], logs[:, i], logs[:, j])
    same = (mats[:, i] == mats[:, j]).all(axis=(-2, -1))
    return np.where(same, 0.0, values)


def _sym_vn_table(mats: np.ndarray) -> np.ndarray:
    """sym_vn over ``_PAIRS``; (b, a) sums the same two directions as
    (a, b), and floating-point addition commutes exactly."""
    vn = _vn_table(mats, *_BOTH_WAYS)
    return 0.5 * (vn[:, :len(_PAIRS)] + vn[:, len(_PAIRS):])


def _fidelity_table(mats: np.ndarray) -> np.ndarray:
    """fidelity over ``_PAIRS`` for each trial of an (n, 3, d, d) stack,
    from one square root per matrix and one stacked decomposition of every
    pair's ``sqrt(a) b sqrt(a)``, each pair in fidelity's own order."""
    out = np.ones((len(mats), 4))       # ab, ac, bc, then F(x, x) = 1
    jobs = []
    for t, trio in enumerate(mats):
        for p, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            order = _fidelity_order(trio[i], trio[j])
            if order is not None:
                jobs.append((t, p, i, j) if order else (t, p, j, i))
    if jobs:
        t, p, first, second = np.array(jobs).T
        sqrts = matrix_function(mats, np.sqrt, eigen_floor=0.0)
        traces = _root_trace(sqrts[t, first], mats[t, second])
        out[t, p] = [_fidelity_value(x) for x in traces.tolist()]
    return out[:, [0, 0, 1, 2, 3, 3, 3]]


# One row per registered measure: (kind, plain function, table, the report's
# cost note in the matrix dimension d).  The table holds the measure's
# values over ``_PAIRS`` for an (n, 3, d, d) stack of trials, each equal to
# the plain function's to the bit.
_MEASURES: dict[str, tuple[str, MetricFn, Table, str]] = {
    "trace_inner_product": (
        SIMILARITY, trace_inner_product,
        lambda mats: np.trace(mats[:, _I] @ mats[:, _J], axis1=-2, axis2=-1).real,
        "O(d^3), one matrix product per pair"),
    "vn_divergence": (DIVERGENCE, vn_divergence, _vn_table,
                      "O(d^3), one decomposition per matrix (log)"),
    "sym_vn": (DIVERGENCE, sym_vn, _sym_vn_table,
               "O(d^3), one decomposition per matrix (log), both directions"),
    "fidelity": (SIMILARITY, fidelity, _fidelity_table,
                 "O(d^3), one decomposition per matrix (sqrt) and pair"),
    "sqrt_fidelity_distance": (
        DISTANCE, sqrt_fidelity_distance,
        lambda mats: np.sqrt(np.maximum(0.0, 1.0 - _fidelity_table(mats))),
        "O(d^3), one decomposition per matrix (sqrt) and pair"),
}
METRIC_FNS: dict[str, MetricFn] = {name: row[1] for name, row in _MEASURES.items()}


def _audit(report: MetricAuditReport, table: Table, drawn: list[np.ndarray]) -> None:
    """Fill ``report`` from the drawn (n, 3, d, d) stacks of trials, the
    measure's injected cases (trial -1) first, one table call per stack."""
    stacks = [*_INJECTED.get(report.metric, []), *drawn]
    starts = np.cumsum([0, *map(len, stacks)])
    skip = starts[len(stacks) - len(drawn)]     # the injected trials
    values = np.concatenate([table(stack) for stack in stacks])
    axioms = _SIMILARITY_AXIOMS if report.kind == SIMILARITY else _DISTANCE_AXIOMS
    columns = dict(zip(_PAIRS, values.T))
    gaps = np.array([gap_of(*(columns[p] for p in pairs))
                     for _, pairs, gap_of, _ in axioms])
    results = [report.axiom(axiom) for axiom, *_ in axioms]
    for result in results:
        result.checked = len(values)
    flagged = gaps > AUDIT_TOL
    for t in np.flatnonzero(flagged.any(axis=0)):
        todo = [(axiom, float(gaps[k, t])) for k, axiom in enumerate(axioms)
                if flagged[k, t] and len(results[k].violations) < REPORTED_VIOLATIONS]
        if todo:
            s = int(np.searchsorted(starts, t, side="right")) - 1
            _audit_triple(report, max(int(t - skip), -1), stacks[s][t - starts[s]], todo)


def _least_int(name: str, value, least: int) -> int:
    """``value`` as a plain int, if it is an integer (a numpy one too, but
    not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def audit_metrics(
    metrics: list[str],
    trials: int,
    dims: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
) -> list[MetricAuditReport]:
    """Property-test each registered measure named in ``metrics`` against
    the four axioms on one draw, as its registered kind.

    The ``trials`` random triples are drawn once and shared: dealt round
    robin over ``dims``, then drawn and numbered entry by entry.  Known
    seeded counterexamples are injected ahead of them as trial -1.  Every
    argument is checked before anything is drawn: ``trials``, ``seed`` and
    each of ``dims`` must be integers (numpy ones too, but not bools), and
    the reports hold them as plain ints.
    """
    metrics = list(metrics)
    if not metrics:
        raise DomainError("metrics must name at least one measure")
    for metric in metrics:
        if not isinstance(metric, str) or metric not in _MEASURES:
            raise DomainError(
                f"unknown metric {metric!r}; choose from {sorted(_MEASURES)}"
            )
    trials = _least_int("trials", trials, 1)
    dims = tuple(_least_int("each of dims", d, 2) for d in dims)
    if not dims:
        raise DomainError("dims must name at least one dimension")
    seed = _least_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    shares = np.bincount(np.arange(trials) % len(dims))  # one per entry with a trial
    drawn = [random_densities(rng, d, 3 * n).reshape(n, 3, d, d)
             for d, n in zip(dims, shares)]
    reports = []
    for name in metrics:
        kind, _, table, _ = _MEASURES[name]
        reports.append(MetricAuditReport(name, kind, trials, dims, seed))
        _audit(reports[-1], table, drawn)
    return reports


def audit_metric(
    metric: str,
    trials: int,
    dims: tuple[int, ...] = (2, 3, 4),
    seed: int = 0,
) -> MetricAuditReport:
    """Property-test one registered measure against the four axioms: the
    one-measure view of ``audit_metrics``."""
    return audit_metrics([metric], trials, dims, seed)[0]


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
        cells.append(_MEASURES[rep.metric][3])
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
                for v in res.violations
            ],
        }
    return out
