"""qmatch benchmark: one seeded workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload zipf-long --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/NOTES.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the environment, and in a traced run the spans, is written under
``bench/out/``.  The run exits with status 2, printing no result, when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Every matrix here is at most 50x50 and the target box has two shared
# cores, so BLAS runs single-threaded; set before numpy is first imported.
THREAD_VARS = ("QMATCH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(str(ROOT / ".git" / ref))
        if not value:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    value = line.split()[0]
        return value or "unknown"
    return head or "unknown"


def source_digest() -> str:
    """SHA-256 over the qmatch package and the benchmark's own code, so that
    fingerprints are compared only between runs of the same code."""
    digest = hashlib.sha256()
    files = sorted([*(SRC / "qmatch").rglob("*.py"), *BENCH.glob("*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(args, source: str) -> dict:
    import numpy as np

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_fingerprint(key: str, info: dict, ledger) -> None:
    """Outputs that must repeat exactly across runs of the same code and seed;
    ``key`` names both."""
    stable = {k: info[k] for k in ("checkpoint_sha256", "dev_map", "audit_fingerprint")
              if k in info}
    path = OUT / "fingerprints.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        ledger.check(seen[key] == stable,
                     f"{key}: outputs differ from an earlier run of this code and seed")
    else:
        seen[key] = stable
        path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "qmatch" / "__init__.py").is_file():
        print(f"bench: no qmatch package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    ledger = workloads.Ledger()
    trace = bool(args.trace)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.workload == "metric-audit":
            metrics, info, tracer = workloads.run_audit(
                args.seed, args.seconds, trace, str(SRC), ledger)
        else:
            metrics, info, tracer = workloads.run_matcher(
                args.seed, args.seconds, trace, workdir, str(SRC), ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    source = source_digest()
    check_fingerprint(f"{source}:{args.workload}:{args.seed}", info, ledger)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        units = metric_units("per_layer")
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))
    else:
        units = metric_units("end_to_end")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(units)},
    }
    env = environment(args, source)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "info": info, "failures": ledger.failures, "environment": env},
        indent=1, sort_keys=True))

    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, value in info.items():
        print(f"info {key}: {value}")
    for what in ledger.failures:
        print(f"FAILED {what}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"attempted {ledger.attempted} failed {ledger.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
