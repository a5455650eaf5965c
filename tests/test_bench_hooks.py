"""The benchmark's tracer wraps qmatch functions by name; each must exist.

A traced benchmark run looks every ``(module, attribute)`` of
``bench/tracing.py``'s ``TARGETS`` up on the package, so deleting or
renaming one of them breaks ``bench/run.py --trace 1``.  This check makes
that a test failure instead.
"""

import importlib
import pathlib
import runpy

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# run_path compiles the file without writing bytecode next to it
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for _, module, attribute, _, _ in TARGETS],
    ids=[name for name, *_ in TARGETS],
)
def test_tracer_target_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
