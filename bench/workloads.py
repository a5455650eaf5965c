"""The benchmark's workloads: a matcher corpus and the metric audit.

Each workload runs in one process and drives qmatch only through its
public functions, called through their modules so that the traced run's
wrappers see every call.  An untraced run times every phase; a traced run
alternates untraced and traced rounds of a fixed amount of work and
reports per-layer numbers from the traced rounds plus the difference
between the two.
Every phase also checks its outputs; a failed check counts as failed
operations against the operations attempted.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from typing import Callable

import numpy as np

import inputs
from tracing import MEASURES, SpanTable, Tracer, layer_metrics

from qmatch import (
    checkpoint,
    data,
    density_metrics,
    embedding,
    evaluation,
    linalg,
    matcher,
    model,
    training,
)
from qmatch.errors import QmatchError

# An untraced run repeats set-up and every phase in this many rounds.
# Set-up reports the median over rounds.  Every other figure averages its
# unit of work (a train() call, an evaluate pass, an audit of one measure,
# a window of requests) over all rounds: the shared host switches between a
# fast and a 1.4-1.9x slower speed every few milliseconds, so a mean over
# the whole run tracks the share of slow time smoothly, where a median or a
# best-of flips between the two speeds from run to run.  That share itself
# drifts for minutes, so every time is then corrected by HostSpeed.
ROUNDS = 16
# Shares of --seconds given to the time-bound phases of an untraced run.
EVAL_SHARE, RANK_SHARE = 0.15, 0.2
SWEEP_SHARE, REQUEST_SHARE = 0.15, 0.2
# A traced run alternates this many untraced and traced rounds of fixed
# work, so its counts compare exactly across commits.
TRACE_ROUNDS = 3
TRACE_EVAL_PASSES, TRACE_SWEEP_PASSES = 2, 2
TRACE_RANK_WINDOWS, TRACE_AUDIT_WINDOWS = 2, 10

AUDIT_DIMS = (2, 3, 4)          # the metric-audit command's default
AUDIT_TRIALS = 60               # trials per measure in one audit batch
AUDIT_SEEDS = 4                 # audit seeds the rounds cycle through
SWEEP_PAIRS = 40                # density-matrix pairs per dimension
AUDIT_WINDOW = 30               # requests per window: 2 cycles of 5 measures x 3 dims
DENSE_SAMPLE = 6                # sentences checked against the dense oracle
DENSE_ATOL = 1e-9
EIG_REPEATS = {4: 30, 16: 5, 50: 2}


# One epoch per train() call leaves room for 16 calls in a run.
EPOCHS = 1


# zipf-long's train, dev and test splits, in questions.
ZIPF_SPLITS = (200, 20, 50)
WORKLOADS = ("zipf-long", "metric-audit")


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


def repeat(fn: Callable[[], float], budget_s: float, at_least: int) -> list[float]:
    """Call fn() until budget_s has passed and at least ``at_least`` calls
    are done; return what the calls return, each its own busy seconds."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < at_least or time.perf_counter() < deadline:
        times.append(fn())
    return times


# Time of one HostSpeed kernel call that every corrected time refers to.
REF_NOMINAL_S = 0.5e-3


class HostSpeed:
    """The host's speed during a run, from a fixed reference kernel timed
    between the measured operations.

    The shared host runs qmatch's kind of code at a fast speed or one up
    to 1.9x slower, switching every few milliseconds, and the share of
    slow time drifts for minutes: raw times of the same code spread by a
    quarter between runs.  The kernel does the same kind of work as
    qmatch (a Python loop over small complex matrices, one vector-sized
    product) on fixed inputs and calls none of qmatch's code, so no
    program change moves it.  ``scale()`` turns a time measured in the
    run into the time on a host where the kernel takes REF_NOMINAL_S.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._a = (m + m.conj().T) / 8
        self._v = rng.standard_normal((200, 50))
        self.times: list[float] = []
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> float:
        a = b = self._a
        total = 0.0
        for _ in range(20):
            b = a @ b / np.linalg.norm(b)
            total += float(np.trace(b).real) + float(np.sqrt(np.abs(b)).sum())
        return total + float(np.tanh(self._v @ self._v[0]).sum())

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return REF_NOMINAL_S / float(np.mean(self.times))

    def info(self) -> dict:
        return {"host_probes": len(self.times),
                "host_probe_ms": 1000.0 * float(np.mean(self.times)),
                "host_scale": self.scale()}


def corrected(raw: dict, scale: float) -> dict:
    """Host-speed-corrected end-to-end metrics: times scale by ``scale``,
    rates by its inverse."""
    return {name: value / scale if name.endswith("_per_s") else value * scale
            for name, value in raw.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_seconds(src: str, modules: str) -> tuple[float, float]:
    """Import times of numpy and then of qmatch modules in a fresh
    interpreter, timed inside it.  numpy loads first, so the second figure
    is qmatch's own import."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        f"import {modules}; print(t1 - t0, time.perf_counter() - t1)"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    numpy_s, qmatch_s = map(float, done.stdout.split())
    return numpy_s, qmatch_s


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name, root=True) if tracer else contextlib.nullcontext()


# --------------------------------------------------------------- matcher


def matcher_rounds(paths: dict, cfg: model.TrainerConfig, workdir: str,
                   ledger: Ledger, seed: int, rounds: int, budget: dict,
                   import_src: str | None, host: HostSpeed,
                   tracer: Tracer | None = None) -> dict:
    """Rounds of set-up, train(), a checkpoint round trip, whole-split
    evaluate() passes and a slice of the one-client ranking loop.

    Every round trains the same model from scratch, so each phase is spread
    over the whole run.  The ranking loop runs in windows, each ranking
    every test question once, one question per evaluate() call.  The host
    is probed after every timed operation.
    """
    out: dict = {k: [] for k in ("numpy_import_s", "import_s", "data_s", "train_s",
                                 "ckpt_s", "eval_s", "rank_windows")}
    digests, dev_maps = set(), set()
    ckpt = os.path.join(workdir, "checkpoint.qmatch")
    first = None
    for r in range(rounds):
        if import_src:
            numpy_s, qmatch_s = import_seconds(
                import_src, "qmatch.training, qmatch.evaluation, qmatch.checkpoint")
            out["numpy_import_s"].append(numpy_s)
            out["import_s"].append(qmatch_s)
        t0 = time.perf_counter()
        splits = {
            name: data.load_tsv(paths[name], data.CANONICAL_FORMAT, name)[0]
            for name in inputs.SPLITS
        }
        vocab = data.build_vocab([splits["train"]])
        model.init_parameters(vocab, cfg)
        out["data_s"].append(time.perf_counter() - t0)

        train_set, test = splits["train"], splits["test"]
        triplets = cfg.epochs * sum(
            len(q.positives()) for q in train_set.questions if q.negatives())
        losses: list[float] = []

        def log(record: dict) -> None:
            if record["kind"] == "batch":
                losses.append(record["loss"])

        t0 = time.perf_counter()
        result = training.train(train_set, splits["dev"], cfg, vocab=vocab, log_fn=log)
        out["train_s"].append(time.perf_counter() - t0)
        host.probe()
        ledger.attempt(triplets)
        bad = sum(not np.isfinite(x) for x in losses)
        ledger.check(bad == 0, f"{bad} batches with a non-finite loss",
                     min(bad * cfg.batch_size, triplets))
        ledger.check(result.best_dev_map is not None
                     and np.isfinite(result.best_dev_map), "dev MAP is not finite")
        dev_maps.add(result.best_dev_map)

        t0 = time.perf_counter()
        checkpoint.save_checkpoint(ckpt, result.params, result.config, result.vocab)
        params, cfg_loaded, vocab = checkpoint.load_checkpoint(ckpt)
        out["ckpt_s"].append(time.perf_counter() - t0)
        host.probe()
        digests.add(sha256_file(ckpt))
        ledger.check(
            cfg_loaded == result.config and vocab.tokens == result.vocab.tokens
            and np.array_equal(params.amplitude, result.params.amplitude)
            and np.array_equal(params.phase, result.params.phase)
            and np.array_equal(params.measurements, result.params.measurements),
            "checkpoint round trip changed the model")

        sentences = test.num_questions + test.num_pairs
        reports: list = []

        def eval_pass() -> float:
            t0 = time.perf_counter()
            reports.append(evaluation.evaluate(params, test, cfg, vocab))
            busy = time.perf_counter() - t0
            host.probe()
            return busy

        out["eval_s"] += repeat(eval_pass, budget["eval_s"], budget["eval_passes"])
        ledger.attempt(len(reports) * sentences)
        first = first or reports[0]
        for report in reports:
            ledger.check(report.per_question == first.per_question,
                         "repeated evaluate() passes disagree", sentences)
        split_ap = {r.question_id: r.average_precision for r in first.per_question}

        order = np.random.default_rng([seed, 4]).permutation(test.num_questions)
        one = data.QADataset(split="rank", questions=[])

        def rank_window() -> float:
            times = []
            for j in order:
                question = test.questions[int(j)]
                one.questions = [question]
                t0 = time.perf_counter()
                try:
                    with _span(tracer, "bench.rank_question"):
                        report = evaluation.evaluate(params, one, cfg, vocab)
                except QmatchError as exc:
                    ledger.check(False, f"ranking {question.question_id}: {exc}")
                    continue
                times.append(time.perf_counter() - t0)
                host.probe()
                ledger.check(report.per_question[0].average_precision
                             == split_ap[question.question_id],
                             f"ranking {question.question_id} alone changed its AP")
            out["rank_windows"].append(times)
            ledger.attempt(len(order))
            return sum(times)

        repeat(rank_window, budget["rank_s"], budget["rank_windows"])
        if r == 0:
            out["peak_rss_mb"] = peak_rss_mb()

    ledger.check(len(digests) == 1 and len(dev_maps) == 1,
                 "train() gave different models for the same inputs and seed")
    out.update(sha256=digests.pop(), dev_map=dev_maps.pop(), test_map=first.map,
               ckpt_bytes=os.path.getsize(ckpt), params=params, vocab=vocab,
               test=test, split_ap=split_ap, triplets=triplets,
               sentences=sentences)
    return out


def verify_matcher(res: dict, cfg: model.TrainerConfig, seed: int,
                   ledger: Ledger) -> None:
    """Finite representations and scores over the test split, rankings
    that match evaluate(), and the factored path against the dense oracle."""
    params, vocab, test = res["params"], res["vocab"], res["test"]

    def rep(text: str) -> np.ndarray:
        return matcher.represent(vocab.encode(embedding.tokenize(text)), params, cfg)

    for q in test.questions:
        rep_q = rep(q.text)
        ledger.check(finite(rep_q), f"{q.question_id}: non-finite representation")
        scores = []
        for c in q.candidates:
            rep_a = rep(c.text)
            s = matcher.score(rep_q, rep_a)
            ledger.check(finite(rep_a) and np.isfinite(s),
                         f"{q.question_id}/{c.answer_id}: non-finite output")
            scores.append(s)
        ranked = evaluation.rank_candidates(
            scores, [c.answer_id for c in q.candidates],
            [c.label for c in q.candidates])
        ap = evaluation.average_precision([r.label for r in ranked])
        ledger.check(ap == res["split_ap"][q.question_id],
                     f"{q.question_id}: evaluate() disagrees with its own scores")

    texts = [t for q in test.questions for t in (q.text, *(c.text for c in q.candidates))]
    rng = np.random.default_rng([seed, 5])
    for j in rng.choice(len(texts), size=DENSE_SAMPLE, replace=False):
        ids = vocab.encode(embedding.tokenize(texts[int(j)]))
        gap = float(np.max(np.abs(matcher.represent(ids, params, cfg)
                                  - matcher.represent_dense(ids, params, cfg))))
        ledger.check(gap <= DENSE_ATOL,
                     f"represent and represent_dense differ by {gap:.3e}")


def run_matcher(seed: int, seconds: float, trace: bool, workdir: str, src: str,
                ledger: Ledger) -> tuple:
    corpus = inputs.zipf_long(seed, *ZIPF_SPLITS)
    paths = inputs.write_corpus(corpus, workdir)
    cfg = model.TrainerConfig(epochs=EPOCHS, seed=seed)

    if not trace:
        budget = {"eval_s": EVAL_SHARE * seconds / ROUNDS, "eval_passes": 1,
                  "rank_s": RANK_SHARE * seconds / ROUNDS, "rank_windows": 1}
        host = HostSpeed()
        res = matcher_rounds(paths, cfg, workdir, ledger, seed, ROUNDS, budget, src, host)
        verify_matcher(res, cfg, seed, ledger)
        raw = {
            "setup_s": float(np.median(res["import_s"]) + np.median(res["data_s"])
                             + np.median(res["ckpt_s"])),
            "batch_per_s": res["triplets"] / float(np.mean(res["train_s"])),
            "sweep_per_s": res["sentences"] / float(np.mean(res["eval_s"])),
            "request_p50_ms": window_percentile_ms(res["rank_windows"], 50),
            "request_p90_ms": window_percentile_ms(res["rank_windows"], 90),
        }
        info = {"dev_map": res["dev_map"], "test_map": res["test_map"],
                "checkpoint_sha256": res["sha256"],
                "numpy_import_s": float(np.median(res["numpy_import_s"])),
                "train_calls": len(res["train_s"]),
                "eval_passes": len(res["eval_s"]),
                "rank_windows": len(res["rank_windows"]),
                "rank_requests": sum(map(len, res["rank_windows"])),
                **host.info(), **{f"raw.{k}": v for k, v in raw.items()}}
        metrics = corrected(raw, host.scale())
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        return metrics, info, None

    budget = {"eval_s": 0.0, "eval_passes": TRACE_EVAL_PASSES,
              "rank_s": 0.0, "rank_windows": TRACE_RANK_WINDOWS}

    def round_once(tracer: Tracer | None) -> dict:
        host = HostSpeed()
        res = matcher_rounds(paths, cfg, workdir, ledger, seed, 1, budget, None,
                             host, tracer)
        verify_matcher(res, cfg, seed, ledger)
        res["requests"] = [t for w in res["rank_windows"] for t in w]
        res["unit_s"] = host.scale() * (res["train_s"][0] + min(res["eval_s"])
                                        + float(np.median(res["requests"])))
        return res

    plain, traced, tracer = plain_and_traced(round_once)
    ledger.check(len({(r["sha256"], r["dev_map"]) for r in plain + traced}) == 1,
                 "tracing changed the trained model")
    metrics = layer_metrics(SpanTable(tracer))
    metrics.update(trace_extras(plain, traced))
    metrics["checkpoint.bytes"] = traced[0]["ckpt_bytes"]
    metrics.update({f"linalg.eig_us.d{d}": 0.0 for d in EIG_REPEATS})
    info = {"dev_map": traced[0]["dev_map"], "checkpoint_sha256": traced[0]["sha256"]}
    return metrics, info, tracer


def plain_and_traced(round_once: Callable[[Tracer | None], dict]) -> tuple:
    """Alternate untraced and traced rounds of the same fixed work, so that
    drift in the host's speed reaches both sides of the overhead alike."""
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(round_once(None))
        with tracer.installed():
            traced.append(round_once(tracer))
    return plain, traced, tracer


def window_percentile_ms(windows: list[list[float]], q: float) -> float:
    """Percentile q of the request times within each window, in ms,
    averaged over the windows."""
    return 1000.0 * float(np.mean([np.percentile(w, q) for w in windows]))


def trace_extras(plain: list[dict], traced: list[dict]) -> dict:
    """Tail diagnostics of the untraced request loop, and the tracing
    overhead: traced minus untraced time of one unit of work (one of each
    phase), host-speed corrected per round, each side taking its fastest
    round."""
    requests = [t for r in plain for t in r["requests"]]
    plain_s = min(r["unit_s"] for r in plain)
    traced_s = min(r["unit_s"] for r in traced)
    return {
        "request.p99_ms": 1000.0 * float(np.percentile(requests, 99)),
        "request.samples": len(requests),
        "trace.overhead_ms": 1000.0 * (traced_s - plain_s),
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


# ----------------------------------------------------------------- audit

# Verdicts of the acceptance test on the axiom pattern.
VERDICTS = (
    ("trace_inner_product", "symmetry", False),
    ("trace_inner_product", "identity", True),
    ("vn_divergence", "symmetry", True),
    ("sym_vn", "symmetry", False),
    ("fidelity", "symmetry", False),
)


def audit_rounds(seed: int, ledger: Ledger, rounds: int, budget: dict,
                 import_src: str | None, host: HostSpeed,
                 tracer: Tracer | None = None) -> dict:
    """Rounds of: one audit batch over the five measures (round r audits
    with seed ``seed * AUDIT_SEEDS + r % AUDIT_SEEDS``), a slice of the
    sweep of direct measure evaluations, and a slice of the one-client loop
    of single-trial audits, run in windows of AUDIT_WINDOW requests.  The
    host is probed after every audit call, sweep pair and request."""
    out: dict = {k: [] for k in ("numpy_import_s", "import_s", "sweep_s",
                                 "request_windows")}
    out["per_measure_s"] = {m: [] for m in MEASURES}
    pairs = inputs.density_pairs(seed, AUDIT_DIMS, SWEEP_PAIRS)
    fns = density_metrics.METRIC_FNS
    out["evaluations"] = evaluations = len(pairs) * len(MEASURES)
    fingerprints: dict[int, set] = {}
    served = itertools.count()

    def sweep() -> float:
        busy = 0.0
        for a, b in pairs:
            t0 = time.perf_counter()
            for m in MEASURES:
                ledger.check(np.isfinite(fns[m](a, b)), f"{m} is not finite")
            busy += time.perf_counter() - t0
            host.probe()
        return busy

    def request_window() -> float:
        times = []
        for _ in range(AUDIT_WINDOW):
            i = next(served)
            m = MEASURES[i % len(MEASURES)]
            dim = AUDIT_DIMS[(i // len(MEASURES)) % len(AUDIT_DIMS)]
            t0 = time.perf_counter()
            try:
                with _span(tracer, "bench.audit_request"):
                    density_metrics.audit_metric(m, trials=1, dims=(dim,),
                                                 seed=seed * 1_000_000 + i)
            except QmatchError as exc:
                ledger.check(False, f"single-trial audit of {m}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            host.probe()
        out["request_windows"].append(times)
        ledger.attempt(AUDIT_WINDOW)
        return sum(times)

    for r in range(rounds):
        if import_src:
            numpy_s, qmatch_s = import_seconds(import_src, "qmatch.density_metrics")
            out["numpy_import_s"].append(numpy_s)
            out["import_s"].append(qmatch_s)
        reports = {}
        audit_seed = seed * AUDIT_SEEDS + r % AUDIT_SEEDS
        for m in MEASURES:
            t0 = time.perf_counter()
            reports[m] = density_metrics.audit_metric(
                m, trials=AUDIT_TRIALS, dims=AUDIT_DIMS, seed=audit_seed)
            out["per_measure_s"][m].append(time.perf_counter() - t0)
            host.probe()
        ledger.attempt(AUDIT_TRIALS * len(MEASURES))
        for m, axiom, violated in VERDICTS:
            verdict = "violated" if violated else "holds"
            ledger.check(reports[m].axiom(axiom).violated == violated,
                         f"{m} {axiom} verdict is not '{verdict}'", AUDIT_TRIALS)
        fingerprints.setdefault(audit_seed, set()).add(hashlib.sha256(json.dumps(
            [density_metrics.report_to_dict(reports[m]) for m in MEASURES],
            sort_keys=True).encode()).hexdigest())

        times = repeat(sweep, budget["sweep_s"], budget["sweep_passes"])
        ledger.attempt(len(times) * evaluations)
        out["sweep_s"] += times
        repeat(request_window, budget["request_s"], budget["request_windows"])
        if r == 0:
            out["peak_rss_mb"] = peak_rss_mb()

    ledger.check(all(len(f) == 1 for f in fingerprints.values()),
                 "audit_metric() gave different reports for the same seed")
    # The first audit seed is the one a traced run (a single round) also uses.
    out["fingerprint"] = fingerprints[seed * AUDIT_SEEDS].pop()
    return out


def eig_microbench(seed: int) -> dict:
    """Median hermitian_eig time on full-rank seeded density matrices."""
    rng = np.random.default_rng([seed, 6])
    out = {}
    for dim, reps in EIG_REPEATS.items():
        rho = inputs.density_matrix(rng, dim, dim)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            linalg.hermitian_eig(rho)
            times.append(time.perf_counter() - t0)
        out[f"linalg.eig_us.d{dim}"] = 1e6 * float(np.median(times))
    return out


def run_audit(seed: int, seconds: float, trace: bool, src: str,
              ledger: Ledger) -> tuple:
    # First calls pay one-off costs inside numpy; keep them out of the timing.
    for m in MEASURES:
        density_metrics.audit_metric(m, trials=2, dims=AUDIT_DIMS, seed=seed)

    if not trace:
        budget = {"sweep_s": SWEEP_SHARE * seconds / ROUNDS, "sweep_passes": 1,
                  "request_s": REQUEST_SHARE * seconds / ROUNDS, "request_windows": 1}
        host = HostSpeed()
        res = audit_rounds(seed, ledger, ROUNDS, budget, src, host)
        mean = {m: float(np.mean(t)) for m, t in res["per_measure_s"].items()}
        raw = {
            "setup_s": float(np.median(res["import_s"])),
            "batch_per_s": AUDIT_TRIALS * len(MEASURES) / sum(mean.values()),
            "sweep_per_s": res["evaluations"] / float(np.mean(res["sweep_s"])),
            "request_p50_ms": window_percentile_ms(res["request_windows"], 50),
            "request_p90_ms": window_percentile_ms(res["request_windows"], 90),
        }
        info = {"audit_fingerprint": res["fingerprint"],
                "numpy_import_s": float(np.median(res["numpy_import_s"])),
                "audit_batches": ROUNDS,
                "sweep_passes": len(res["sweep_s"]),
                "request_windows": len(res["request_windows"]),
                "audit_requests": sum(map(len, res["request_windows"])),
                **host.info(), **{f"raw.{k}": v for k, v in raw.items()}}
        for m, seconds_mean in mean.items():
            info[f"audit_ms_per_trial.{m}"] = (1000.0 * seconds_mean * host.scale()
                                               / AUDIT_TRIALS)
        metrics = corrected(raw, host.scale())
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        return metrics, info, None

    eig = eig_microbench(seed)
    budget = {"sweep_s": 0.0, "sweep_passes": TRACE_SWEEP_PASSES,
              "request_s": 0.0, "request_windows": TRACE_AUDIT_WINDOWS}

    def round_once(tracer: Tracer | None) -> dict:
        host = HostSpeed()
        res = audit_rounds(seed, ledger, 1, budget, None, host, tracer)
        res["requests"] = [t for w in res["request_windows"] for t in w]
        res["unit_s"] = host.scale() * (sum(t[0] for t in res["per_measure_s"].values())
                                        + min(res["sweep_s"])
                                        + float(np.median(res["requests"])))
        return res

    plain, traced, tracer = plain_and_traced(round_once)
    ledger.check(len({r["fingerprint"] for r in plain + traced}) == 1,
                 "tracing changed the audit reports")
    metrics = layer_metrics(SpanTable(tracer))
    metrics.update(trace_extras(plain, traced))
    metrics["checkpoint.bytes"] = 0
    metrics.update(eig)
    return metrics, {"audit_fingerprint": traced[0]["fingerprint"]}, tracer
