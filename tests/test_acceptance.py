"""Desk-scale acceptance suite for the matching engine.

Every test prints one ``[acceptance] <name>: PASS/FAIL (...)`` line
(visible under ``pytest -s``) before asserting, so the verdicts survive
in the log either way.  Checks with a wall-clock budget assert it too.
The three multi-run checks carry the ``slow`` marker: ``pytest -m "not
slow"`` gives a quick tier, and the full suite still runs them.  The
toy-overfit, lift and ablation checks run the experiments of ``scripts/``.

The loader check against the original TREC QA / WikiQA distributions is
optional: point ``QMATCH_TRECQA_TRAIN`` at the raw four-column training
TSV and/or ``QMATCH_WIKIQA_TEST`` at the raw WikiQA test TSV to compare
against their published question/pair counts.  Without those variables
the bundled fixtures with hand-counted expectations stand in.
"""

import os
import time

import numpy as np
import pytest

import test_gradients as fd
from oracles import complex_add_polar, identity_counterexample_gap
from test_scripts import script
from qmatch.data import FORMAT_PRESETS, load_tsv
from qmatch.density_metrics import (
    audit_metrics,
    random_densities,
    trace_inner_product,
)
from qmatch.embedding import assemble_word_vector, normalize_word
from qmatch.linalg import hermitian_eig, outer_product
from qmatch.reference import global_mixture, local_mixture, measure_all, slide_windows

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_states(rng, length: int, dim: int):
    amp = rng.normal(size=(length, dim))
    if rng.random() < 0.02:
        amp[int(rng.integers(length))] = 0.0  # exercise the zero-norm word path
    phase = rng.uniform(-np.pi, np.pi, size=(length, dim))
    return [
        normalize_word(assemble_word_vector(amp[i], phase[i]))
        for i in range(length)
    ]


def test_density_matrix_invariants_at_scale():
    """Hermiticity, unit trace and positivity of every window matrix."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    sentences = 10_000
    matrices = 0
    worst_herm = 0.0
    worst_trace = 0.0
    worst_eig = np.inf
    for s in range(sentences):
        dim = int(rng.integers(2, 11))
        length = int(rng.integers(1, 13))
        width = int(rng.integers(1, 6))
        states = _random_states(rng, length, dim)
        rhos = [local_mixture(w) for w in slide_windows(states, width)]
        if s % 10 == 0:
            rhos.append(global_mixture(states))
        for rho in rhos:
            worst_herm = max(worst_herm, float(np.abs(rho - rho.conj().T).max()))
            worst_trace = max(worst_trace, abs(complex(np.trace(rho)) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho)[0]))
            matrices += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_herm <= 1e-9
        and worst_trace <= 1e-9
        and worst_eig >= -1e-8
        and elapsed < 30.0
    )
    _report(
        "density-matrix invariants",
        ok,
        f"{sentences} sentences / {matrices} matrices, worst hermiticity "
        f"{worst_herm:.1e}, trace deviation {worst_trace:.1e}, min eigenvalue "
        f"{worst_eig:.1e}, {elapsed:.1f}s",
    )


def test_complete_measurement_sets_sum_to_one():
    """A full orthonormal measurement set must exhaust the probability."""
    rng = np.random.default_rng(7)
    cases = 1_000
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(2, 11))
        states = _random_states(rng, int(rng.integers(1, 6)), dim)
        rho = local_mixture(states)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(z)
        probs = measure_all([rho], unitary)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    ok = worst <= 1e-8
    _report(
        "complete-measurement probability sums",
        ok,
        f"{cases} random orthonormal sets, worst |sum - 1| = {worst:.1e}",
    )


def test_gradients_agree_with_finite_differences():
    """Analytic backward pass vs central differences, all parameter classes."""
    t0 = time.perf_counter()
    plan = (
        [("local", True, seed) for seed in range(60)]
        + [("global", True, seed) for seed in range(100, 120)]
        + [("local", False, seed) for seed in range(200, 220)]
    )
    failures: list[str] = []
    for mixture, complex_valued, seed in plan:
        try:
            fd.run_fd_check(seed, mixture, complex_valued)
        except AssertionError as exc:
            kind = "complex" if complex_valued else "real"
            failures.append(f"{mixture}/{kind} seed {seed}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = (
        f"{len(plan)} instances (amplitude, phase, measurement re/im), "
        f"relative tolerance {fd.REL_TOL:g}, {elapsed:.1f}s"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    _report("analytic-vs-finite-difference gradients", ok, detail)


def test_self_similarity_gap_polynomial_and_sign_change():
    """The rotated-pair gap follows 2a^2 - 3a + 1 and crosses zero at 1/2."""
    alphas = np.linspace(0.0, 1.0, 100)
    values = np.array([identity_counterexample_gap(float(a)) for a in alphas])
    poly = 2.0 * alphas**2 - 3.0 * alphas + 1.0
    worst = float(np.abs(values - poly).max())
    straddles = any(
        values[i] * values[i + 1] < 0.0 and alphas[i] < 0.5 < alphas[i + 1]
        for i in range(len(alphas) - 1)
    )
    ok = worst <= 1e-12 and straddles
    _report(
        "self-similarity gap polynomial",
        ok,
        f"100-point grid, max |gap - (2a^2-3a+1)| = {worst:.1e}, "
        f"sign change across 1/2: {straddles}",
    )


def test_trace_inner_product_equals_overlap_double_sum():
    """Tr(rho_a rho_b) must equal the weighted squared-overlap double sum."""
    rng = np.random.default_rng(55)
    cases = 1_000
    worst = 0.0
    for case in range(cases):
        dim = int(rng.integers(2, 9))
        if case % 2 == 0:
            # explicit mixtures of random (non-orthogonal) pure states
            def mixture():
                k = int(rng.integers(1, 4))
                vecs = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
                vecs /= np.linalg.norm(vecs, axis=1)[:, None]
                probs = rng.dirichlet(np.ones(k))
                rho = sum(p * outer_product(v) for p, v in zip(probs, vecs))
                return probs, vecs, rho

            pa, va, rho_a = mixture()
            pb, vb, rho_b = mixture()
        else:
            # eigendecompositions of generic random densities
            rho_a, rho_b = random_densities(rng, dim, 2)
            (pa, va), (pb, vb) = hermitian_eig(rho_a), hermitian_eig(rho_b)
            va, vb = va.T, vb.T
        tip = trace_inner_product(rho_a, rho_b)
        double = sum(
            float(pa[i] * pb[j]) * abs(np.vdot(va[i], vb[j])) ** 2
            for i in range(len(pa))
            for j in range(len(pb))
        )
        worst = max(worst, abs(tip - double) / abs(double))
    ok = worst <= 1e-9
    _report(
        "trace inner product vs overlap double sum",
        ok,
        f"{cases} mixture pairs, worst relative deviation {worst:.1e}",
    )


def test_polar_addition_matches_rectangular():
    """Polar-form addition agrees with rectangular; aligned phases exactly."""
    rng = np.random.default_rng(91)
    pairs = 10_000
    worst = 0.0
    for _ in range(pairs):
        r1, r2 = (float(x) for x in rng.uniform(0.0, 2.0, size=2))
        t1, t2 = (float(x) for x in rng.uniform(-np.pi, np.pi, size=2))
        r, theta = complex_add_polar(r1, t1, r2, t2)
        rect = r1 * np.exp(1j * t1) + r2 * np.exp(1j * t2)
        worst = max(worst, abs(r * np.exp(1j * theta) - rect))
    exact = all(
        complex_add_polar(float(a), 0.0, float(b), 0.0) == (float(a) + float(b), 0.0)
        for a, b in rng.uniform(0.0, 2.0, size=(1_000, 2))
    )
    ok = worst <= 1e-12 and exact
    _report(
        "polar addition vs rectangular",
        ok,
        f"{pairs} random pairs, worst |polar - rect| = {worst:.1e}, "
        f"zero-phase degeneration exact on 1000 pairs: {exact}",
    )


def test_loader_reproduces_reference_counts():
    """Counts on bundled fixtures; raw published splits when supplied."""
    problems: list[str] = []
    notes: list[str] = []

    ds, rep = load_tsv(
        os.path.join(DATA_DIR, "canonical_tiny.tsv"),
        FORMAT_PRESETS["canonical"],
        split="train",
    )
    got = (
        rep.rows_read,
        rep.pairs_dropped_empty_text,
        rep.questions_dropped_no_positive,
        ds.num_questions,
        ds.num_pairs,
    )
    want = (8, 2, 1, 2, 5)
    if got != want:
        problems.append(f"canonical fixture counts {got} != {want}")
    notes.append(f"canonical fixture {got[3]}q/{got[4]}p")

    ds, rep = load_tsv(
        os.path.join(DATA_DIR, "wikiqa_tiny.tsv"),
        FORMAT_PRESETS["wikiqa"],
        split="test",
    )
    got = (rep.rows_read, ds.num_questions, ds.num_pairs)
    if got != (5, 2, 5):
        problems.append(f"wikiqa fixture counts {got} != (5, 2, 5)")
    notes.append(f"wikiqa fixture {got[1]}q/{got[2]}p")

    trec_path = os.environ.get("QMATCH_TRECQA_TRAIN")
    if trec_path:
        ds, _ = load_tsv(trec_path, FORMAT_PRESETS["trecqa"], split="train")
        if (ds.num_questions, ds.num_pairs) != (1229, 53417):
            problems.append(
                f"raw TREC QA train {ds.num_questions}q/{ds.num_pairs}p "
                "!= 1229q/53417p"
            )
        notes.append(f"raw TREC QA train {ds.num_questions}q/{ds.num_pairs}p")
    else:
        notes.append("raw TREC QA split not supplied")

    wiki_path = os.environ.get("QMATCH_WIKIQA_TEST")
    if wiki_path:
        ds, _ = load_tsv(wiki_path, FORMAT_PRESETS["wikiqa"], split="test")
        if (ds.num_questions, ds.num_pairs) != (633, 2351):
            problems.append(
                f"raw WikiQA test {ds.num_questions}q/{ds.num_pairs}p "
                "!= 633q/2351p"
            )
        notes.append(f"raw WikiQA test {ds.num_questions}q/{ds.num_pairs}p")
    else:
        notes.append("raw WikiQA split not supplied")

    detail = "; ".join(problems + notes)
    _report("loader reference counts", not problems, detail)


def test_toy_overfit_reaches_perfect_ranking():
    """A separable toy set must be ranked perfectly within 50 epochs."""
    t0 = time.perf_counter()
    result, report = script("train_toy", "toy_overfit")(epochs=50, seed=3)
    elapsed = time.perf_counter() - t0
    ok = (
        result.best_dev_map == 1.0
        and report.map == 1.0
        and report.mrr == 1.0
        and elapsed < 60.0
    )
    _report(
        "toy overfit",
        ok,
        f"best dev MAP {result.best_dev_map:.3f}, final MAP {report.map:.3f} / "
        f"MRR {report.mrr:.3f} at epoch {result.best_epoch}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_training_beats_random_baseline_across_seeds():
    """Trained dev MAP must clear the frozen random baseline by 0.10."""
    t0 = time.perf_counter()
    maps = script("scaled_signal", "lift_per_seed")(seeds=range(10), epochs=60)
    lifts = [trained - baseline for baseline, trained in maps]
    elapsed = time.perf_counter() - t0
    wins = sum(lift >= 0.10 for lift in lifts)
    ok = wins >= 8 and elapsed < 1200.0
    _report(
        "training lift over random baseline",
        ok,
        f"lift >= 0.10 on {wins}/10 seeds (min {min(lifts):+.3f}, "
        f"max {max(lifts):+.3f}), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_metric_audit_reproduces_axiom_pattern():
    """Symmetry/identity verdicts across the distance-measure family."""
    t0 = time.perf_counter()
    names = ("trace_inner_product", "vn_divergence", "sym_vn", "fidelity")
    reports = dict(zip(names, audit_metrics(names, trials=10_000, dims=(2, 3, 4),
                                            seed=0)))
    elapsed = time.perf_counter() - t0
    checks = {
        "trace_inner_product symmetry holds":
            not reports["trace_inner_product"].symmetry.violated,
        "trace_inner_product identity violated":
            reports["trace_inner_product"].identity.violated,
        "vn_divergence asymmetry detected":
            reports["vn_divergence"].symmetry.violated,
        "sym_vn symmetry holds": not reports["sym_vn"].symmetry.violated,
        "fidelity symmetry holds": not reports["fidelity"].symmetry.violated,
    }
    failed = [label for label, passed in checks.items() if not passed]
    ok = not failed
    detail = f"10000 trials per measure, {elapsed:.0f}s"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _report("metric audit axiom pattern", ok, detail)


@pytest.mark.slow
def test_ablation_orderings_hold():
    """Windowed beats whole-sentence; complex at least matches real."""
    t0 = time.perf_counter()
    maps = script("ablation", "ablation_maps")(seeds=range(5), epochs=200)
    means = {name: float(np.mean(runs)) for name, runs in maps.items()}
    elapsed = time.perf_counter() - t0
    local_beats_global = means["local/complex"] >= means["global/complex"]
    complex_beats_real = means["local/complex"] >= means["local/real"]
    ok = local_beats_global and complex_beats_real
    _report(
        "ablation orderings",
        ok,
        f"mean dev MAP over 5 seeds: local/complex {means['local/complex']:.4f}, "
        f"local/real {means['local/real']:.4f}, global/complex "
        f"{means['global/complex']:.4f}; local>=global {local_beats_global}, "
        f"complex>=real {complex_beats_real}; {elapsed:.0f}s",
    )
