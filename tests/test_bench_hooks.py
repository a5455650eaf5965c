"""The benchmark reads qmatch names from outside; each must exist.

A traced benchmark run looks every ``(module, attribute)`` of
``bench/tracing.py``'s ``TARGETS`` up on the package, and the workloads
read ``<module>.<attribute>`` off the modules they import with
``from qmatch import ...`` (or take names with ``from qmatch.<module>
import ...``).  Deleting or renaming one of them breaks ``bench/run.py``;
these checks make that a test failure instead.
"""

import ast
import importlib
import pathlib
import runpy

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# run_path compiles the file without writing bytecode next to it
TRACING = runpy.run_path(str(BENCH / "tracing.py"))
TARGETS = TRACING["TARGETS"]


def bench_reads():
    """Sorted ``(qmatch module, attribute)`` pairs that bench/*.py reads."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}   # local name -> qmatch module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            for alias in node.names:
                if node.module == "qmatch":
                    modules[alias.asname or alias.name] = f"qmatch.{alias.name}"
                elif (node.module or "").startswith("qmatch."):
                    reads.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.add((modules[node.value.id], node.attr))
    return sorted(reads)


BENCH_READS = bench_reads()


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


def test_bench_reads_are_found():
    # the scan must see the workloads' module reads, or the cases below
    # would pass by checking nothing
    assert ("qmatch.matcher", "represent_dense") in BENCH_READS
    assert len(BENCH_READS) >= 20


@pytest.mark.parametrize(
    "module, attribute",
    BENCH_READS,
    ids=[f"{module[len('qmatch.'):]}.{attribute}" for module, attribute in BENCH_READS],
)
def test_bench_read_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)


def test_traced_audit_labels_its_trials_and_calls_no_measure():
    # the tracer wraps _audit_triple by name and labels each trial span with
    # its first argument's report.metric; an audit reads only tables
    for module in sorted({module for _, module, *_ in TARGETS}):
        importlib.import_module(module)
    density_metrics = importlib.import_module("qmatch.density_metrics")
    tracer = TRACING["Tracer"]()
    with tracer.installed():
        density_metrics.audit_metric("vn_divergence", trials=20, seed=2)
    assert tracer.names.count("density_metrics.audit") == 1
    trials = [attr for name, attr in zip(tracer.names, tracer.attrs)
              if name == "density_metrics.trial"]
    assert trials and set(trials) == {"vn_divergence"}
    assert "density_metrics.vn_divergence" not in tracer.names


TRACER_ONLY = ("forward_sentence", "backward_sentence", "triplet_grad")


def test_the_tracer_only_wrappers_have_no_caller_in_the_package_or_tests():
    # the tracer wraps these batches of one by name and nothing else uses
    # them, so they can go with the benchmark's last read of them
    root = BENCH.parent
    defined, used = [], []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in TRACER_ONLY:
                defined.append(node.name)
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in TRACER_ONLY:
                used.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert sorted(defined) == sorted(TRACER_ONLY)
    assert used == []
