"""Span tracing around qmatch's public functions, applied from outside.

The package has no spans of its own, so the traced run replaces each
measured function, in every ``qmatch`` module namespace that holds it, by
a wrapper that records one span per call.  Spans are kept in memory
(parallel lists) and written out once the run ends.  A span's request id
is set by the outermost request root around it: a training triplet, a
ranked question, an audit request, or an audit trial of a batch; spans
outside any request carry 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

MEASURES = (
    "trace_inner_product",
    "vn_divergence",
    "sym_vn",
    "fidelity",
    "sqrt_fidelity_distance",
)


def _forward_tokens(token_ids, params, config, *args, **kwargs):
    return min(len(token_ids), config.max_sentence_len)


def _trial_measure(report, *args, **kwargs):
    return report.metric


# (span name, module, attribute, request root, span attribute function)
TARGETS = [
    ("data.load_tsv", "qmatch.data", "load_tsv", False, None),
    ("data.build_vocab", "qmatch.data", "build_vocab", False, None),
    ("data.sample_triplets", "qmatch.data", "sample_triplets", False, None),
    ("embedding.tokenize", "qmatch.embedding", "tokenize", False, None),
    ("embedding.encode", "qmatch.embedding", "Vocabulary.encode", False, None),
    ("matcher.forward", "qmatch.matcher", "forward_sentence", False, _forward_tokens),
    ("matcher.represent", "qmatch.matcher", "represent", False, None),
    ("matcher.score", "qmatch.matcher", "score", False, None),
    ("gradients.triplet", "qmatch.gradients", "triplet_grad", True, None),
    ("gradients.backward", "qmatch.gradients", "backward_sentence", False, None),
    ("gradients.cosine_grad", "qmatch.gradients", "cosine_grad", False, None),
    ("training.train", "qmatch.training", "train", False, None),
    ("training.step", "qmatch.training", "sgd_step", False, None),
    ("evaluation.evaluate", "qmatch.evaluation", "evaluate", False, None),
    ("checkpoint.save", "qmatch.checkpoint", "save_checkpoint", False, None),
    ("checkpoint.load", "qmatch.checkpoint", "load_checkpoint", False, None),
    ("linalg.eig", "qmatch.linalg", "hermitian_eig", False, None),
    ("linalg.matrix_function", "qmatch.linalg", "matrix_function", False, None),
    ("density_metrics.audit", "qmatch.density_metrics", "audit_metric", False, None),
    ("density_metrics.trial", "qmatch.density_metrics", "_audit_triple", True,
     _trial_measure),
] + [
    (f"density_metrics.{m}", "qmatch.density_metrics", m, False, None)
    for m in MEASURES
]


class Tracer:
    """Collects spans in memory: name, start, end, parent, request, attr."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.attrs: list = []
        self._stack: list[int] = []
        self._last_request = 0

    def _open(self, name: str, root: bool, attr) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        request = self.requests[parent] if parent >= 0 else 0
        if root and request == 0:
            self._last_request += 1
            request = self._last_request
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.attrs.append(attr)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        idx = self._open(name, root, None)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, root: bool, attr_fn):
        def traced(*args, **kwargs):
            attr = attr_fn(*args, **kwargs) if attr_fn is not None else None
            idx = self._open(name, root, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every qmatch namespace; restore on exit."""
        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qmatch" or n.startswith("qmatch.")]
        dicts = [vars(m) for m in modules]
        from qmatch.density_metrics import METRIC_FNS
        dicts.append(METRIC_FNS)
        for name, module, attr, root, attr_fn in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self.wrap(name, original, root, attr_fn))
                restore.append(functools.partial(setattr, cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, root, attr_fn)
            for d in dicts:
                for key, value in list(d.items()):
                    if value is original:
                        d[key] = wrapper
                        restore.append(functools.partial(d.__setitem__, key, original))
        try:
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i],
                                     self.parents[i], self.requests[i],
                                     self.attrs[i]]) + "\n")


class SpanTable:
    """Per-name aggregates over a finished trace; times in milliseconds."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = np.array(tracer.names, dtype=object)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.attrs = tracer.attrs
        dur = np.array(tracer.ends, dtype=np.int64) - np.array(tracer.starts,
                                                               dtype=np.int64)
        self.dur_ms = dur / 1e6
        # Children of one span run one after another, so the part of the
        # parent's interval they cover is the sum of their durations.
        covered = np.zeros(len(dur))
        has_parent = self.parents >= 0
        np.add.at(covered, self.parents[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - covered

    def mask(self, name: str) -> np.ndarray:
        return self.names == name

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total_ms(self, name: str) -> float:
        return float(self.dur_ms[self.mask(name)].sum())

    def self_total_ms(self, name: str) -> float:
        return float(self.self_ms[self.mask(name)].sum())

    def attr_sum(self, name: str) -> int:
        return int(sum(self.attrs[i] for i in np.flatnonzero(self.mask(name))))

    def parent_is(self, name: str, parent: str) -> np.ndarray:
        has_parent = self.parents >= 0
        out = np.zeros(len(self.names), dtype=bool)
        idx = np.flatnonzero(self.mask(name) & has_parent)
        out[idx] = self.names[self.parents[idx]] == parent
        return out


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """The per-layer metrics named in NOTES.md, from one traced pass."""
    t = table
    triplets = t.calls("gradients.triplet")
    backward = t.calls("gradients.backward")
    out = {
        "matcher.forward_calls": t.calls("matcher.forward"),
        "matcher.forward_ms": t.self_total_ms("matcher.forward")
        + t.self_total_ms("matcher.represent"),
        "matcher.forward_tokens": t.attr_sum("matcher.forward"),
        "matcher.score_calls": t.calls("matcher.score"),
        "matcher.score_ms": t.self_total_ms("matcher.score"),
        "gradients.triplet_calls": triplets,
        "gradients.backward_calls": backward,
        "gradients.backward_ms": t.self_total_ms("gradients.backward"),
        "gradients.cosine_grad_ms": t.self_total_ms("gradients.cosine_grad"),
        "gradients.active_hinge_ratio": backward / (3 * triplets) if triplets else 0.0,
        "training.step_calls": t.calls("training.step"),
        "training.step_ms": t.self_total_ms("training.step"),
        "training.dev_eval_ms": float(
            t.dur_ms[t.parent_is("evaluation.evaluate", "training.train")].sum()
        ),
        "training.self_ms": t.self_total_ms("training.train"),
        "embedding.tokenize_calls": t.calls("embedding.tokenize"),
        "embedding.tokenize_ms": t.self_total_ms("embedding.tokenize"),
        "embedding.encode_calls": t.calls("embedding.encode"),
        "embedding.encode_ms": t.self_total_ms("embedding.encode"),
        "data.sample_triplets_calls": t.calls("data.sample_triplets"),
        "data.sample_triplets_ms": t.self_total_ms("data.sample_triplets"),
        "evaluation.evaluate_calls": t.calls("evaluation.evaluate"),
        "evaluation.evaluate_ms": t.total_ms("evaluation.evaluate"),
        "evaluation.self_ms": t.self_total_ms("evaluation.evaluate"),
        "checkpoint.save_ms": t.self_total_ms("checkpoint.save"),
        "checkpoint.load_ms": t.self_total_ms("checkpoint.load"),
        "data.load_tsv_ms": t.self_total_ms("data.load_tsv"),
        "data.build_vocab_ms": t.self_total_ms("data.build_vocab"),
        "linalg.eig_calls": t.calls("linalg.eig"),
        "linalg.eig_ms": t.self_total_ms("linalg.eig"),
        "linalg.matrix_function_calls": t.calls("linalg.matrix_function"),
        "linalg.matrix_function_self_ms": t.self_total_ms("linalg.matrix_function"),
    }
    trial_measure = np.array(
        [a if n == "density_metrics.trial" else None
         for n, a in zip(t.names, t.attrs)], dtype=object)
    for m in MEASURES:
        name = f"density_metrics.{m}"
        trials = int((trial_measure == m).sum())
        direct = int(t.parent_is(name, "density_metrics.trial").sum())
        out[f"{name}.calls_per_trial"] = direct / trials if trials else 0.0
        out[f"{name}.self_ms"] = t.self_total_ms(name)
    return out
