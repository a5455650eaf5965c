"""Committed digests of canonical short runs, so that a bit change is a
reviewed diff.

Five 3-epoch topic-corpus training runs are digested by their parameter
payload (the checkpoint's little-endian float64 blocks) and best dev MAP,
and the five measures' 300-trial metric audits by their ``report_to_dict``
JSON.  A change that moves any of these bits fails here.  When the move is
intended, regenerate the record in the same change with

    PYTHONPATH=src python tests/test_fingerprints.py

which prints each digest that moved (name, old, new) before it rewrites
the record; name those digests, and why they moved, in the change's notes.

The bits rest on the numpy version and the BLAS build, so the record
names the environment it was made in.  Under any other environment the
comparisons are skipped, with a reason naming both environments.
"""

import functools
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from qmatch.density_metrics import METRIC_FNS, audit_metric, report_to_dict
from qmatch.model import TrainerConfig
from qmatch.synthetic import topic_corpus
from qmatch.training import train

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
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


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


if __name__ == "__main__":
    fresh = {"environment": environment(), "digests": {n: digest(n) for n in NAMES}}
    for name, old, new in moved_digests(record()["digests"], fresh["digests"]):
        print(f"moved {name}: {json.dumps(old)} -> {json.dumps(new)}")
    RECORD_PATH.write_text(json.dumps(fresh, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RECORD_PATH}")
