"""Density-matrix similarity/distance measures and the axiom auditor.

Closed-form oracles: commuting (diagonal) cases reduce every measure to a
classical formula on the eigenvalue vectors, pure states reduce fidelity
to a squared overlap, and the two-state mixing family has a quadratic
self-overlap gap.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import identity_counterexample_gap, pairwise_measure, pairwise_table
from qmatch import density_metrics
from qmatch.density_metrics import (
    AUDIT_TOL,
    DISTANCE,
    DIVERGENCE,
    METRIC_FNS,
    REPORTED_VIOLATIONS,
    SIMILARITY,
    audit_metric,
    audit_metrics,
    fidelity,
    random_densities,
    render_audit_table,
    report_to_dict,
    sqrt_fidelity_distance,
    sym_vn,
    trace_inner_product,
    vn_divergence,
)
from qmatch.errors import DomainError, ShapeError
from qmatch.linalg import hermitize, outer_product


def diag_density(*values):
    return np.diag(np.asarray(values, dtype=np.complex128))


def pure(vec):
    v = np.asarray(vec, dtype=np.complex128)
    return outer_product(v / np.linalg.norm(v))


def random_pair(seed, dim=3):
    rng = np.random.default_rng(seed)
    return tuple(random_densities(rng, dim, 2))


# ---------------------------------------------------------------------------
# trace inner product


def test_trace_inner_product_diagonal_oracle():
    # commuting case: sum of eigenvalue products = 0.45 + 0.05
    a = diag_density(0.5, 0.5)
    b = diag_density(0.9, 0.1)
    assert trace_inner_product(a, b) == pytest.approx(0.5, abs=1e-15)


def test_trace_inner_product_pure_states():
    phi = pure([1.0, 1.0j])
    psi = pure([1.0, 0.0])
    assert trace_inner_product(phi, phi) == pytest.approx(1.0, abs=1e-12)
    assert trace_inner_product(psi, pure([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    # overlap |<phi|psi>|^2 = |1/sqrt(2)|^2
    assert trace_inner_product(phi, psi) == pytest.approx(0.5, abs=1e-12)


def test_trace_inner_product_double_sum_identity():
    # tr(rho sigma) for explicit mixtures equals the weighted overlap table
    rng = np.random.default_rng(2)
    states_a = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
    states_b = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    states_a = [v / np.linalg.norm(v) for v in states_a]
    states_b = [v / np.linalg.norm(v) for v in states_b]
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.5, 0.3])
    rho = sum(w * outer_product(v) for w, v in zip(p, states_a))
    sigma = sum(w * outer_product(v) for w, v in zip(q, states_b))
    double_sum = sum(
        p[i] * q[j] * abs(np.vdot(states_a[i], states_b[j])) ** 2
        for i in range(2)
        for j in range(3)
    )
    assert trace_inner_product(rho, sigma) == pytest.approx(double_sum, abs=1e-12)


def test_trace_inner_product_rejects_bad_inputs():
    with pytest.raises(ShapeError, match="differ in shape"):
        trace_inner_product(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    with pytest.raises(ShapeError, match="square"):
        trace_inner_product(np.ones((2, 3), dtype=complex), np.ones((2, 3), dtype=complex))
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # not Hermitian
    with pytest.raises(DomainError, match="imaginary residue"):
        trace_inner_product(nilpotent, np.array([[0.0, 0.0], [1.0j, 0.0]]))


# ---------------------------------------------------------------------------
# self-overlap gap of the two-state family


def test_gap_matches_quadratic_everywhere():
    alphas = np.linspace(0.0, 1.0, 100)
    for alpha in alphas:
        expected = 2.0 * alpha**2 - 3.0 * alpha + 1.0
        assert identity_counterexample_gap(float(alpha)) == pytest.approx(
            expected, abs=1e-12
        )


def test_gap_hand_points():
    assert identity_counterexample_gap(0.25) == pytest.approx(0.375, abs=1e-12)
    assert identity_counterexample_gap(0.75) == pytest.approx(-0.125, abs=1e-12)
    assert identity_counterexample_gap(1.0) == pytest.approx(0.0, abs=1e-12)
    assert identity_counterexample_gap(0.5) == pytest.approx(0.0, abs=1e-12)


def test_gap_changes_sign_across_one_half():
    assert identity_counterexample_gap(0.49) > 0.0
    assert identity_counterexample_gap(0.51) < 0.0


def test_gap_rejects_out_of_range():
    with pytest.raises(DomainError):
        identity_counterexample_gap(-0.01)
    with pytest.raises(DomainError):
        identity_counterexample_gap(1.01)


# ---------------------------------------------------------------------------
# von Neumann divergence


def test_vn_divergence_diagonal_reduces_to_kl():
    a = diag_density(0.5, 0.5)
    b = diag_density(0.9, 0.1)
    kl = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert vn_divergence(a, b) == pytest.approx(kl, rel=1e-12)
    assert vn_divergence(a, b) == pytest.approx(0.5108256238, abs=1e-9)


def test_vn_divergence_is_asymmetric():
    a = diag_density(0.5, 0.5)
    b = diag_density(0.9, 0.1)
    assert abs(vn_divergence(a, b) - vn_divergence(b, a)) > 0.1


def test_vn_divergence_vanishes_on_identical_inputs():
    rho, _ = random_pair(5)
    assert vn_divergence(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_vn_divergence_of_bit_identical_inputs_is_exactly_zero(monkeypatch):
    rho, _ = random_pair(5)

    def no_logarithm(*args, **kwargs):
        raise AssertionError("identical inputs need no matrix logarithm")

    monkeypatch.setattr(density_metrics, "matrix_function", no_logarithm)
    assert vn_divergence(rho, rho.copy()) == 0.0
    assert sym_vn(rho, rho.copy()) == 0.0


def test_vn_divergence_support_mismatch_is_large_but_finite():
    value = vn_divergence(pure([1.0, 0.0]), pure([0.0, 1.0]))
    assert np.isfinite(value)
    assert value > 10.0  # floored logs instead of +inf


def test_vn_divergence_unitary_invariance():
    a, b = random_pair(7)
    theta = 0.4
    u = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0],
            [np.sin(theta), np.cos(theta), 0],
            [0, 0, np.exp(0.3j)],
        ]
    )
    rotated = vn_divergence(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert rotated == pytest.approx(vn_divergence(a, b), abs=1e-8)


def test_sym_vn_is_the_mean_of_both_directions():
    a, b = random_pair(9)
    expected = 0.5 * (vn_divergence(a, b) + vn_divergence(b, a))
    assert sym_vn(a, b) == expected
    assert sym_vn(a, b) == sym_vn(b, a)


def count_decompositions(monkeypatch):
    """Wrap density_metrics.matrix_function; returns the number of matrices
    each call decomposed."""
    counts = []
    original = density_metrics.matrix_function

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(density_metrics, "matrix_function", counting)
    return counts


def test_sym_vn_takes_each_logarithm_once(monkeypatch):
    a, b = random_pair(9)
    expected = 0.5 * (vn_divergence(a, b) + vn_divergence(b, a))
    counts = count_decompositions(monkeypatch)
    assert sym_vn(a, b) == expected
    assert counts == [2]  # one stacked call for log a and log b


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_diagonal_oracle():
    # (sum_i sqrt(p_i q_i))^2 = (sqrt(0.45) + sqrt(0.05))^2 = 0.8
    a = diag_density(0.5, 0.5)
    b = diag_density(0.9, 0.1)
    assert fidelity(a, b) == pytest.approx(0.8, abs=1e-9)


def test_fidelity_identical_inputs_exactly_one():
    rho, _ = random_pair(3)
    assert fidelity(rho, rho) == 1.0
    assert sqrt_fidelity_distance(rho, rho) == 0.0


def test_fidelity_pure_states_squared_overlap():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    expected = abs(np.vdot(u, v)) ** 2
    # rank-one inputs leave d-1 zero eigenvalues whose noise the two
    # square roots amplify, so the tolerance is looser than elsewhere
    assert fidelity(outer_product(u), outer_product(v)) == pytest.approx(
        expected, abs=1e-7
    )


def test_fidelity_orthogonal_pure_states_vanishes():
    assert fidelity(pure([1.0, 0.0]), pure([0.0, 1.0])) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_fidelity_symmetric_to_the_bit(seed):
    a, b = random_pair(seed)
    assert fidelity(a, b) == fidelity(b, a)
    assert 0.0 <= fidelity(a, b) <= 1.0


def test_sqrt_fidelity_distance_triangle_samples():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b, c = random_densities(rng, 3, 3)
        lhs = sqrt_fidelity_distance(a, c)
        rhs = sqrt_fidelity_distance(a, b) + sqrt_fidelity_distance(b, c)
        assert lhs <= rhs + AUDIT_TOL


# ---------------------------------------------------------------------------
# random densities


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_random_density_is_a_density_matrix(seed, dim):
    rho = random_densities(np.random.default_rng(seed), dim, 1)[0]
    np.testing.assert_array_equal(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("seed", range(4))
def test_random_densities_are_hermitian_to_the_bit(seed):
    # no symmetrising pass runs: each matrix already equals its conjugate
    # transpose, and hermitize would move none of its bits
    rng = np.random.default_rng(seed)
    for dim in range(2, 7):
        for rho in random_densities(rng, dim, 25):
            np.testing.assert_array_equal(rho, rho.conj().T)
            assert hermitize(rho).tobytes() == rho.tobytes()


def test_random_density_is_deterministic():
    a = random_densities(np.random.default_rng(33), 4, 1)[0]
    b = random_densities(np.random.default_rng(33), 4, 1)[0]
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dim", range(2, 7))
def test_random_density_ranks_cover_one_to_d(dim):
    # a matrix mixes 1..d states, each count drawn uniformly
    rhos = random_densities(np.random.default_rng(dim), dim, 400)
    ranks = {int(np.linalg.matrix_rank(rho, tol=1e-10, hermitian=True)) for rho in rhos}
    assert ranks == set(range(1, dim + 1))


def test_random_densities_average_to_the_maximally_mixed_state():
    # the draw is unitarily invariant, so its mean is I / d
    rhos = random_densities(np.random.default_rng(3), 3, 4000)
    assert np.abs(np.mean(rhos, axis=0) - np.eye(3) / 3).max() < 0.02


# ---------------------------------------------------------------------------
# the auditor


def test_audit_finds_the_self_overlap_counterexample():
    report = audit_metric("trace_inner_product", trials=40, seed=1)
    assert report.axiom("identity").violated
    trials = [v.trial for v in report.axiom("identity").violations]
    assert -1 in trials  # the seeded two-state family is always included
    assert report.axiom("symmetry").status == "holds"
    assert report.axiom("non_negativity").status == "holds"


def test_audit_violations_are_reproducible_from_stored_matrices():
    report = audit_metric("trace_inner_product", trials=40, seed=1)
    violation = report.axiom("identity").violations[0]
    a, b = violation.matrices
    fn = METRIC_FNS["trace_inner_product"]
    gap = max(fn(a, b) - fn(a, a), fn(a, b) - fn(b, b))
    assert gap > AUDIT_TOL
    assert violation.gap == pytest.approx(gap, rel=1e-9)


def test_audit_vn_divergence_breaks_symmetry_only():
    report = audit_metric("vn_divergence", trials=30, seed=2)
    assert report.axiom("symmetry").violated
    assert report.axiom("identity").status == "holds"
    assert report.axiom("non_negativity").status == "holds"


def test_axiom_reads_the_four_axiom_fields_and_nothing_else():
    report = audit_metric("vn_divergence", trials=3)
    names = ("non_negativity", "identity", "symmetry", "triangle")
    assert list(report.axioms) == list(names)
    assert [report.axiom(n) for n in names] == list(report.axioms.values())
    for name in ("metric", "trials", "differentiability"):
        with pytest.raises(KeyError):
            report.axiom(name)


def test_audit_symmetrization_restores_symmetry():
    report = audit_metric("sym_vn", trials=30, seed=2)
    assert report.axiom("symmetry").status == "holds"


def test_audit_fidelity_family():
    fid = audit_metric("fidelity", trials=30, seed=3)
    assert fid.axiom("symmetry").status == "holds"
    assert fid.axiom("identity").status == "holds"
    dist = audit_metric("sqrt_fidelity_distance", trials=30, seed=3)
    for axiom in ("non_negativity", "identity", "symmetry", "triangle"):
        assert dist.axiom(axiom).status == "holds", axiom


def test_audit_counts_every_trial():
    report = audit_metric("sym_vn", trials=25, seed=0, dims=(2, 3))
    assert report.trials == 25
    assert report.dims == (2, 3)
    assert report.axiom("symmetry").checked == 25  # no injected cases for this one
    assert report.axiom("identity").checked == 25


def test_audit_numbers_trials_dimension_by_dimension():
    # dims (3, 2) deal trials round robin, 3 to each dimension, but the
    # audit draws and numbers all of 3's first: trials 0-2 are the rows of
    # the 3 x 3 stack, trials 3-5 those of the 2 x 2 stack
    rng = np.random.default_rng(2)
    stacks = [random_densities(rng, d, 9).reshape(3, 3, d, d) for d in (3, 2)]
    report = audit_metric("vn_divergence", trials=6, dims=(3, 2), seed=2)
    reads = {axiom: ["abc".index(m) for m in sorted(set("".join(pairs)))]
             for axiom, pairs, _, _ in density_metrics._DISTANCE_AXIOMS}
    seen = []
    for axiom, rows in reads.items():
        for violation in report.axiom(axiom).violations:
            trio = stacks[violation.trial // 3][violation.trial % 3]
            assert len(violation.matrices) == len(rows)
            for held, row in zip(violation.matrices, rows):
                assert held.tobytes() == trio[row].tobytes()
            seen.append(violation.trial)
    assert set(seen) == {0, 1, 2, 3, 5}


def test_audit_is_deterministic():
    a = audit_metric("vn_divergence", trials=20, seed=5)
    b = audit_metric("vn_divergence", trials=20, seed=5)
    assert len(a.axiom("symmetry").violations) == len(b.axiom("symmetry").violations)
    assert [v.trial for v in a.axiom("symmetry").violations] == [
        v.trial for v in b.axiom("symmetry").violations
    ]


def test_audit_rejects_bad_arguments():
    with pytest.raises(DomainError, match="unknown metric"):
        audit_metric("hamming", trials=5)
    with pytest.raises(DomainError, match="trials"):
        audit_metric("fidelity", trials=0)
    with pytest.raises(DomainError, match="dims"):
        audit_metric("fidelity", trials=5, dims=(1,))
    with pytest.raises(DomainError, match="seed"):
        audit_metrics(["fidelity"], trials=5, seed=-1)


@pytest.mark.parametrize(
    "arguments, message",
    [
        ({"trials": True}, "trials must be an integer >= 1, got True"),
        ({"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"seed": np.True_}, "seed must be an integer >= 0"),
        ({"dims": (2, 3.0)}, "each of dims must be an integer >= 2, got 3.0"),
        ({"dims": (2, True)}, "each of dims must be an integer >= 2, got True"),
        ({"dims": np.array([], dtype=int)}, "dims must name at least one dimension"),
        ({"metrics": []}, "metrics must name at least one measure"),
        ({"metrics": [["fidelity"]]}, "unknown metric ['fidelity']"),
        ({"metrics": [fidelity]}, "unknown metric <function fidelity"),
    ],
    ids=["trials-bool", "trials-float", "seed-float", "seed-numpy-bool",
         "dims-float", "dims-bool", "dims-empty-array", "metrics-empty",
         "metrics-unhashable", "metrics-callable"],
)
def test_audit_rejects_mistyped_arguments_before_drawing(arguments, message,
                                                         monkeypatch):
    def no_draw(*args):
        raise AssertionError("random_densities ran before the arguments were checked")

    monkeypatch.setattr(density_metrics, "random_densities", no_draw)
    call = {"metrics": ["fidelity"], "trials": 3, **arguments}
    with pytest.raises(DomainError, match=re.escape(message)):
        audit_metrics(**call)


@pytest.mark.parametrize(
    "arguments",
    [{"dims": tuple(np.arange(2, 4)), "trials": np.int64(4), "seed": np.uint8(3)},
     {"dims": np.arange(2, 4), "trials": 4, "seed": 3}],
    ids=["numpy-scalars", "dims-array"],
)
def test_audit_accepts_numpy_integers_and_reports_plain_ints(arguments):
    report = audit_metric("fidelity", **arguments)
    plain = audit_metric("fidelity", trials=4, dims=(2, 3), seed=3)
    assert report.dims == (2, 3)
    assert [type(x) for x in (report.trials, report.seed, *report.dims)] == [int] * 4
    assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(plain))


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("name", sorted(METRIC_FNS))
def test_stacked_audit_equals_the_pairwise_oracle(name, seed, monkeypatch):
    # the registered table against the same measure installed with one
    # plain call per pair (d = 9 also sums traces past numpy's 8-element
    # pairwise-summation block)
    dims = (2, 3, 4, 9)
    stacked = audit_metric(name, trials=40, dims=dims, seed=seed)
    kind = density_metrics._MEASURES[name][0]
    monkeypatch.setitem(density_metrics._MEASURES, name,
                        pairwise_measure(kind, METRIC_FNS[name]))
    pairwise = audit_metric(name, trials=40, dims=dims, seed=seed)

    def payload(report):
        return json.dumps(report_to_dict(report), sort_keys=True)

    def every_violation(report):
        return [(axiom, v.gap, v.trial, [m.tobytes() for m in v.matrices])
                for axiom in ("non_negativity", "identity", "symmetry", "triangle")
                for v in report.axiom(axiom).violations]

    assert payload(stacked) == payload(pairwise)
    assert every_violation(stacked) == every_violation(pairwise)


@pytest.mark.parametrize("name", sorted(METRIC_FNS))
def test_every_table_equals_the_pairwise_table_to_the_bit(name):
    # every value of a registered measure's table, not only the flagged
    # trials a report shows, matches one plain call per pair
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 9, 16):
        mats = random_densities(rng, dim, 60).reshape(20, 3, dim, dim)
        _, _, table_of, _ = density_metrics._MEASURES[name]
        table = table_of(mats)
        oracle = pairwise_table(METRIC_FNS[name], mats)
        assert table.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_one_draw_audits_equal_one_audit_per_measure(seed, monkeypatch):
    def everywhere_zero(a, b):
        return 0.0

    monkeypatch.setitem(density_metrics._MEASURES, "everywhere_zero",
                        pairwise_measure(DISTANCE, everywhere_zero))
    metrics = [*sorted(METRIC_FNS), "everywhere_zero"]
    dims = (2, 3, 4, 9)
    shared = audit_metrics(metrics, trials=40, dims=dims, seed=seed)
    alone = [audit_metric(m, trials=40, dims=dims, seed=seed) for m in metrics]
    assert [r.kind for r in shared] == [SIMILARITY, DISTANCE, DIVERGENCE,
                                        SIMILARITY, DIVERGENCE, DISTANCE]
    assert json.dumps([report_to_dict(r) for r in shared]) == json.dumps(
        [report_to_dict(r) for r in alone])


@pytest.mark.parametrize(
    "name, calls",
    [("vn_divergence", [90, 90]), ("sym_vn", [90, 90]),
     ("fidelity", [90, 90, 90, 90]), ("sqrt_fidelity_distance", [90, 90, 90, 90])],
)
def test_stacked_audit_decomposes_each_matrix_once(monkeypatch, name, calls):
    # 30 trials per dimension, 3 matrices (and, for fidelity, 3 pairs) a
    # trial
    counts = count_decompositions(monkeypatch)
    audit_metric(name, trials=60, dims=(2, 3), seed=0)
    assert counts == calls


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_stored_violations_reproduce_through_the_plain_path(seed):
    # every stored gap is the axiom's gap over plain calls on the stored
    # matrices, past tolerance; trial -1 is trace_inner_product's injected
    # case
    trials = []
    for report in audit_metrics(sorted(METRIC_FNS), trials=40, dims=(2, 3, 4, 9),
                                seed=seed):
        fn = METRIC_FNS[report.metric]
        axioms = (density_metrics._SIMILARITY_AXIOMS if report.kind == SIMILARITY
                  else density_metrics._DISTANCE_AXIOMS)
        for axiom, pairs, gap_of, _ in axioms:
            for violation in report.axiom(axiom).violations:
                named = dict(zip(sorted(set("".join(pairs))), violation.matrices))
                gap = gap_of(*(fn(named[x], named[y]) for x, y in pairs))
                assert violation.gap == gap > AUDIT_TOL
                trials.append(violation.trial)
    assert -1 in trials and len(trials) >= 10


@pytest.mark.parametrize("name", sorted(METRIC_FNS))
def test_an_audit_makes_no_plain_call(monkeypatch, name):
    # seed 0 flags hundreds of trials (vn_divergence: 255 symmetry, 52
    # triangle); each stored violation keeps its table gap, and no measure
    # is called, through METRIC_FNS or by its module name
    calls = []

    def counting(measure, plain):
        def fn(a, b):
            calls.append(measure)
            return plain(a, b)
        return fn

    for measure, plain in list(METRIC_FNS.items()):
        monkeypatch.setitem(METRIC_FNS, measure, counting(measure, plain))
        monkeypatch.setattr(density_metrics, measure, counting(measure, plain))
    report = audit_metric(name, trials=300, seed=0)
    stored = [len(report.axiom(axiom).violations)
              for axiom in ("non_negativity", "identity", "symmetry", "triangle")]
    assert set(stored) <= {0, REPORTED_VIOLATIONS}
    assert calls == []


# ---------------------------------------------------------------------------
# reporting


def all_reports():
    return [audit_metric(name, trials=20, seed=4) for name in sorted(METRIC_FNS)]


def test_render_audit_table_layout():
    text = render_audit_table(all_reports())
    lines = text.splitlines()
    assert "metric" in lines[0] and "triangle" in lines[0]
    assert set(lines[1]) <= {"-", " "}
    body = "\n".join(lines[2:])
    for name in METRIC_FNS:
        assert name in body
    assert "- (violated)" in body  # the trace inner product's identity column
    assert "+ (holds)" in body
    assert "n/a" in body  # differentiability is reported, not audited


def test_report_to_dict_is_json_serializable():
    report = audit_metric("trace_inner_product", trials=20, seed=4)
    payload = report_to_dict(report)
    text = json.dumps(payload)
    again = json.loads(text)
    assert again["metric"] == "trace_inner_product"
    assert again["kind"] == SIMILARITY
    identity = again["axioms"]["identity"]
    assert identity["status"] == "violated"
    assert len(identity["violations"]) <= 5
    first = identity["violations"][0]
    matrix = np.array(first["matrices"][0]["re"]) + 1j * np.array(
        first["matrices"][0]["im"]
    )
    assert matrix.shape == (2, 2)
