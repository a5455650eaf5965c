"""Distance and similarity measures between density matrices, plus an
empirical axiom auditor.

The auditor samples random density-matrix triples and checks the four
classical axioms (non-negativity, identity of indiscernibles, symmetry,
triangle inequality) from one table per kind of measure, which gives each
axiom's gap formula over the pairs of matrices it reads.  Similarity-style
measures read identity as self-maximum — s(a,a) >= s(a,b) — and apply the
triangle axiom to the induced squared distance s(a,a) + s(b,b) - 2 s(a,b);
divergence/distance-style measures are audited directly.  A violation is
stored only with a concrete counterexample whose gap, recomputed by the
same formula from plain pairwise calls, is past tolerance too.

An audit of a registered spectral measure draws every trial's matrices
first and decomposes each matrix once, in one stacked LAPACK call per
entry of ``dims``: the von Neumann measures reuse each matrix's
logarithm, and the fidelity measures reuse each matrix's square root and
stack the per-pair ``sqrt(a) b sqrt(a)`` eigenproblems too.  Every value
equals the plain pairwise function's to the bit, and the recheck of a
counterexample stays independent of the stacked path.  The matrices
themselves are drawn in bulk (``random_densities``), each bit-identical
to a draw of it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import hermitize, matrix_function, outer_product

AUDIT_TOL = 1e-9
REPORTED_VIOLATIONS = 5    # counterexamples kept (and rechecked) per axiom
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


def _norms(vec: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each complex vector of a stack, to the bit, as
    ``(..., 1, 1)``.  The dot products must read the strided ``.real`` and
    ``.imag`` views of the complex array, as ``norm`` does: on contiguous
    copies OpenBLAS takes another kernel, which rounds some norms
    differently (seen at d = 4 and 9)."""
    re, im = vec.real, vec.imag
    return np.sqrt(re[..., None, :] @ re[..., :, None]
                   + im[..., None, :] @ im[..., :, None])


def random_densities(rng: np.random.Generator, dims: list[int]) -> list[np.ndarray]:
    """One mixture of 1..d random pure states with Dirichlet(1,..,1)
    weights per entry d of ``dims``.  The generator is read matrix by
    matrix (the number of states, the weights, then each state's real and
    imaginary parts); the arithmetic runs once per group of matrices with
    the same dimension and number of states, with ``outer_product``'s
    formula, and each matrix equals a draw of it alone to the bit."""
    groups: dict[tuple[int, int], list] = {}
    for i, dim in enumerate(dims):
        m = int(rng.integers(1, dim + 1))
        weights = rng.dirichlet(np.ones(m))
        groups.setdefault((dim, m), []).append(
            (i, weights, rng.standard_normal((m, 2, dim))))
    out: list = [None] * len(dims)
    for (dim, m), members in groups.items():
        index, weights, z = zip(*members)
        weights, z = np.array(weights), np.array(z)
        vec = z[..., 0, :] + 1j * z[..., 1, :]
        vec /= _norms(vec)[..., 0]
        re, im = vec.real[..., :, None], vec.imag[..., :, None]
        re_t, im_t = vec.real[..., None, :], vec.imag[..., None, :]
        proj = (re * re_t + im * im_t) + 1j * (im * re_t - re * im_t)
        rho = np.zeros((len(members), dim, dim), dtype=np.complex128)
        for k in range(m):
            rho += weights[:, k, None, None] * proj[:, k]
        for i, r in zip(index, hermitize(rho)):
            out[i] = r
    return out


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


# The axioms of each kind: (axiom, the pairs it reads, its gap over those
# pairs' values in that order, note).  Pair "ab" is fn(a, b) of a trial's
# matrices (a, b, c); a gap past AUDIT_TOL is a violation.
_Axiom = tuple[str, tuple[str, ...], Callable[..., float], str]

_SIMILARITY_AXIOMS: tuple[_Axiom, ...] = (
    ("symmetry", ("ab", "ba"), lambda ab, ba: abs(ab - ba), ""),
    ("non_negativity", ("ab",), lambda ab: -ab, "similarity went negative"),
    # identity as self-maximum: nothing may beat a matrix's own score
    ("identity", ("ab", "aa", "bb"), lambda ab, aa, bb: max(ab - aa, ab - bb),
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
    ("identity", ("aa", "bb"), lambda aa, bb: max(abs(aa), abs(bb)),
     "nonzero self-distance"),
    ("triangle", ("ab", "ac", "bc"), lambda ab, ac, bc: ac - ab - bc, ""),
)


def _audit_triple(
    report: MetricAuditReport,
    fn: MetricFn,
    kind: str,
    trial: int,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: dict[str, float] | None = None,
) -> None:
    """Check one trial's axioms.  ``d`` holds the measure values keyed by
    pair; without it they come from ``fn``.  Up to REPORTED_VIOLATIONS
    violations an axiom are stored, each only if its gap, recomputed from
    fresh ``fn`` calls on the same pairs, is past tolerance too."""
    named = {"a": a, "b": b, "c": c}
    axioms = _SIMILARITY_AXIOMS if kind == SIMILARITY else _DISTANCE_AXIOMS

    def values(pairs):
        return [fn(named[x], named[y]) for x, y in pairs]

    if d is None:
        pairs = list(dict.fromkeys(p for _, read, _, _ in axioms for p in read))
        d = dict(zip(pairs, values(pairs)))
    for axiom, pairs, gap_of, note in axioms:
        result = report.axiom(axiom)
        result.checked += 1
        gap = gap_of(*(d[p] for p in pairs))
        if (gap > AUDIT_TOL and len(result.violations) < REPORTED_VIOLATIONS
                and gap_of(*values(pairs)) > AUDIT_TOL):
            matrices = [named[m].copy() for m in sorted(set("".join(pairs)))]
            result.violations.append(AxiomViolation(
                axiom=axiom, gap=gap, trial=trial, matrices=matrices, note=note
            ))


# Ordered pairs of a trial's matrices (a, b, c) = (0, 1, 2): ab, ba, ac, bc
# first, then the reverses sym_vn needs.
_DIRECTED = ((0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1))
_UNORDERED = ((0, 1), (0, 2), (1, 2))


def _vn_table(mats: np.ndarray) -> np.ndarray:
    """vn_divergence over ``_DIRECTED`` for each trial of an (n, 3, d, d)
    stack, from one logarithm per matrix."""
    logs = _log_density(mats)
    i, j = np.array(_DIRECTED).T
    values = _directed_vn(mats[:, i], logs[:, i], logs[:, j])
    same = (mats[:, i] == mats[:, j]).all(axis=(-2, -1))
    return np.where(same, 0.0, values)


def _sym_vn_table(mats: np.ndarray) -> np.ndarray:
    """sym_vn over ab, ba, ac, bc; (b, a) sums the same two directions as
    (a, b), and floating-point addition commutes exactly."""
    vn = _vn_table(mats)
    return 0.5 * (vn[:, :4] + vn[:, [1, 0, 4, 5]])


def _fidelity_table(mats: np.ndarray) -> np.ndarray:
    """fidelity over ab, ba, ac, bc for each trial of an (n, 3, d, d) stack,
    from one square root per matrix and one stacked decomposition of every
    pair's ``sqrt(a) b sqrt(a)``, each pair in fidelity's own order."""
    out = np.ones((len(mats), len(_UNORDERED)))
    jobs = []
    for t, trio in enumerate(mats):
        for p, (i, j) in enumerate(_UNORDERED):
            order = _fidelity_order(trio[i], trio[j])
            if order is not None:
                jobs.append((t, p, i, j) if order else (t, p, j, i))
    if jobs:
        t, p, first, second = np.array(jobs).T
        sqrts = matrix_function(mats, np.sqrt, eigen_floor=0.0)
        traces = _root_trace(sqrts[t, first], mats[t, second])
        out[t, p] = [_fidelity_value(x) for x in traces.tolist()]
    return out[:, [0, 0, 1, 2]]


def _sine_distance_table(mats: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(0.0, 1.0 - _fidelity_table(mats)))


# Registered measures whose audit decomposes each matrix once: the value
# of a measure on bit-identical inputs, and its table of ab, ba, ac, bc
# values for an (n, 3, d, d) stack of trials (a, b, c).
_STACKED: dict[str, tuple[float, Callable[[np.ndarray], np.ndarray]]] = {
    "vn_divergence": (0.0, lambda mats: _vn_table(mats)[:, :4]),
    "sym_vn": (0.0, _sym_vn_table),
    "fidelity": (1.0, _fidelity_table),
    "sqrt_fidelity_distance": (0.0, _sine_distance_table),
}


def _stacked_values(name: str, triples: list, cycle: int) -> list[dict[str, float]]:
    """Each trial's measure values keyed by pair, from one table per entry
    of a ``cycle`` of dimensions (trial t has the dimension of entry
    t % cycle); every value equals the plain function's to the bit."""
    self_value, table = _STACKED[name]
    out: list = [None] * len(triples)
    for k in range(min(cycle, len(triples))):
        rows = table(np.array(triples[k::cycle])).tolist()
        out[k::cycle] = [
            {"aa": self_value, "bb": self_value, "cc": self_value,
             "ab": ab, "ba": ba, "ac": ac, "bc": bc}
            for ab, ba, ac, bc in rows
        ]
    return out


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
    random trials and marked with trial index -1.  Every trial's matrices
    are drawn first; a registered spectral measure then takes its values
    from one decomposition per matrix (``_STACKED``), a callable or the
    trace inner product from pairwise calls.
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
    mats = random_densities(np.random.default_rng(seed), [
        int(dims[trial % len(dims)]) for trial in range(trials) for _ in range(3)
    ])
    triples = list(zip(mats[0::3], mats[1::3], mats[2::3]))
    stacked = not callable(metric) and name in _STACKED
    values = (_stacked_values(name, triples, len(dims)) if stacked
              else [None] * trials)
    for trial, ((a, b, c), d) in enumerate(zip(triples, values)):
        _audit_triple(report, fn, kind, trial, a, b, c, d)
    return report


# Informative cost notes for the report table (matrix dimension d).
_COMPLEXITY_NOTES = {
    "trace_inner_product": "O(d^3), one matrix product per pair",
    "vn_divergence": "O(d^3), one decomposition per matrix (log)",
    "sym_vn": "O(d^3), one decomposition per matrix (log), both directions",
    "fidelity": "O(d^3), one decomposition per matrix (sqrt) and pair",
    "sqrt_fidelity_distance": "O(d^3), one decomposition per matrix (sqrt) and pair",
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
                for v in res.violations
            ],
        }
    return out
