"""Committed digests of canonical short runs, so that a bit change is a
reviewed diff.

Five 3-epoch topic-corpus training runs are digested by their parameter
payload (the checkpoint's little-endian float64 blocks) and best dev MAP,
and the five measures' 300-trial metric audits by their ``report_to_dict``
JSON.  A change that moves any of these bits fails here.

    PYTHONPATH=src:scripts python tests/test_fingerprints.py

prints each digest that moved (name, old, new) and exits 1 if any did;
it rewrites the record only when given ``--write``.  When a move is
intended, regenerate the record in the same change with ``--write`` and
name the moved digests, and why they moved, in the change's notes.

The bits rest on the numpy version, the BLAS build and, for numpy's
bundled OpenBLAS, the kernel it picked for the CPU, so the record names
the environment it was made in.  Under any other environment the
comparisons are skipped, with a reason naming both environments.
"""

import argparse
import ctypes
import functools
import hashlib
import importlib
import json
import platform
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from qmatch.density_metrics import METRIC_FNS, audit_metric, report_to_dict
from qmatch.model import TrainerConfig
from qmatch.training import train
from synthetic import topic_corpus

RECORD_PATH = Path(__file__).with_name("fingerprints.json")

BASE = TrainerConfig(
    embedding_dim=10,
    num_measurements=8,
    window_sizes=(1, 2),
    learning_rate=0.1,
    batch_size=8,
    epochs=3,
    dropout_rate=0.0,
)
RUNS = {
    "sgd": {},
    "sgd-dropout": {"dropout_rate": 0.3},
    "adam": {"optimizer": "adam"},
    "global": {"mixture": "global"},
    "real": {"complex_valued": False},
}
AUDIT_TRIALS = 300
NAMES = [*RUNS, *(f"audit-{m}" for m in sorted(METRIC_FNS))]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no config dicts
        blas = "unknown"
    env = {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}
    if (kernel := openblas_kernel()) is not None:
        env["openblas_kernel"] = kernel
    return env


def openblas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs on this CPU (e.g. SkylakeX),
    or None when the library exports no ``scipy_openblas_get_corename64_``."""
    try:
        umath = importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:  # numpy < 2
        umath = importlib.import_module("numpy.core._multiarray_umath")
    try:  # the extension's handle also finds the symbols of the libraries it loads
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


@functools.cache
def corpus():
    return topic_corpus()


def digest(name: str):
    if name.startswith("audit-"):
        report = audit_metric(name[len("audit-"):], trials=AUDIT_TRIALS)
        text = json.dumps(report_to_dict(report), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
    result = train(*corpus(), BASE.with_overrides(**RUNS[name]))
    p = result.params
    blocks = (p.amplitude, p.phase, p.measurements.real, p.measurements.imag)
    payload = b"".join(np.ascontiguousarray(b, dtype="<f8").tobytes() for b in blocks)
    return {
        "params_sha256": hashlib.sha256(payload).hexdigest(),
        "best_dev_map": result.best_dev_map,
    }


def moved_digests(old: dict, new: dict) -> list[tuple[str, object, object]]:
    """(name, old, new) for each digest that differs between two records'
    ``digests``; a name one record lacks reads None on that side."""
    names = [*new, *(n for n in old if n not in new)]
    return [(n, old.get(n), new.get(n)) for n in names if old.get(n) != new.get(n)]


@functools.cache
def record() -> dict:
    return json.loads(RECORD_PATH.read_text(encoding="utf-8"))


def test_moved_digests_names_each_digest_that_differs():
    run = {"params_sha256": "a", "best_dev_map": 0.5}
    old = {"sgd": run, "audit-x": "b", "gone": "c"}
    new = {"sgd": {**run, "best_dev_map": 0.75}, "audit-x": "b", "new": "d"}
    assert moved_digests(old, new) == [
        ("sgd", old["sgd"], new["sgd"]),
        ("new", None, "d"),
        ("gone", "c", None),
    ]
    assert moved_digests(new, new) == []


def test_record_names_every_run():
    assert sorted(record()["digests"]) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_digest_matches_the_committed_record(name):
    made, here = record()["environment"], environment()
    if made != here:
        pytest.skip(f"record made under {made}, running under {here}")
    assert digest(name) == record()["digests"][name]


# The committed record with one digest moved, so that any rewrite shows.
MOVED_RECORD = json.dumps(
    {**record(), "digests": {**record()["digests"], "audit-fidelity": "0" * 64}},
    indent=2,
) + "\n"


def run_copy(monkeypatch, tmp_path, *args) -> int:
    """Run a copy of this script beside a copy of ``MOVED_RECORD``, as
    ``python test_fingerprints.py args...`` would; returns its exit code."""
    script = tmp_path / Path(__file__).name
    script.write_bytes(Path(__file__).read_bytes())
    (tmp_path / RECORD_PATH.name).write_text(MOVED_RECORD, encoding="utf-8")
    monkeypatch.setattr(sys, "argv", [script.name, *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(script), run_name="__main__")
    return info.value.code


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["--wirte"], 2)])
def test_the_script_writes_nothing_unless_asked(monkeypatch, tmp_path, args, code):
    assert run_copy(monkeypatch, tmp_path, *args) == code
    assert (tmp_path / RECORD_PATH.name).read_text(encoding="utf-8") == MOVED_RECORD


def test_the_script_names_a_moved_digest_and_writes_only_with_write(
    monkeypatch, tmp_path, capsys
):
    copied = tmp_path / RECORD_PATH.name
    assert run_copy(monkeypatch, tmp_path) == 1
    assert f'moved audit-fidelity: "{"0" * 64}"' in capsys.readouterr().out
    assert copied.read_text(encoding="utf-8") == MOVED_RECORD
    assert run_copy(monkeypatch, tmp_path, "--write") == 0
    written = json.loads(copied.read_text(encoding="utf-8"))
    assert written["digests"]["audit-fidelity"] == digest("audit-fidelity")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Recompute the digests and print each one that moved; "
                    "exit 1 if any moved."
    )
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {RECORD_PATH.name} with the fresh digests")
    args = parser.parse_args()
    fresh = {"environment": environment(), "digests": {n: digest(n) for n in NAMES}}
    moved = moved_digests(record()["digests"], fresh["digests"])
    for name, old, new in moved:
        print(f"moved {name}: {json.dumps(old)} -> {json.dumps(new)}")
    if not args.write:
        return 1 if moved else 0
    RECORD_PATH.write_text(json.dumps(fresh, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
