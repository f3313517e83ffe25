"""Span tracing around the calls into each netdiag layer, and the
per-layer metrics computed from the spans.

The tracer replaces module attributes with wrappers, at the attribute
each caller looks up: `classifiers.diagnose` calls
`classifiers.model_predict`, which reaches `svm.decision_values` through
`svm.decision_value`, so those three attributes are wrapped where they
live.  Spans stay in memory until the run ends.  A span records its
name, start, end, parent and the counts read from the wrapped call's
return value; a root span (a set-up, an operation or a probe) also
records the speed factor (see speed.py) that scales every span under it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

from netdiag import classifiers, features, preprocess, scenarios, selection, simulate, svm, trace

NAME, START, END, PARENT, COUNTS, SCALE = range(6)


def _pair_events(pair) -> int:
    return len(pair.download.events) + len(pair.upload.events)


def _simulated(result, args, kwargs) -> dict:
    pair, stats = result
    return {
        "events": _pair_events(pair),
        "retransmissions": sum(s.sender_retransmissions for s in stats.values()),
    }


def _written(result, args, kwargs) -> dict:
    pair, down, up = args
    return {"events": _pair_events(pair), "bytes": os.path.getsize(down) + os.path.getsize(up)}


# (module, attribute, span name, counter of (result, args, kwargs))
LAYER_CALLS = (
    (simulate, "simulate_flow_with_stats", "simulate.pair", _simulated),
    (scenarios, "write_pair", "trace.write", _written),
    (trace, "read_pair", "trace.read", lambda r, a, k: {"events": _pair_events(r)}),
    (features, "extract_signature", "features.extract", lambda r, a, k: {"events": _pair_events(a[0])}),
    (classifiers, "extract_signature", "features.extract", lambda r, a, k: {"events": _pair_events(a[0])}),
    (preprocess, "load_database", "preprocess.load_database", None),
    (classifiers, "scale_database", "preprocess.scale", None),
    (classifiers, "rank_features", "selection.rank", None),
    (classifiers, "wrapper_select", "selection.wrapper", None),
    (selection, "train_arrays", "svm.cv_fit", None),
    (svm, "train_arrays", "svm.fit", None),
    (svm, "kernel_matrix", "svm.kernel", None),
    (svm, "solve_dual", "svm.solve", lambda r, a, k: {"updates": r.updates}),
    (selection, "decision_values", "svm.decision", None),
    (svm, "decision_values", "svm.decision", None),
    (classifiers, "train_lpd", "classifiers.train", None),
    (classifiers, "train_cfd", "classifiers.train", None),
    (classifiers, "diagnose", "classifiers.diagnose", lambda r, a, k: {"modules": len(r.per_module_decisions)}),
    (classifiers, "model_predict", "classifiers.predict", None),
    (classifiers, "load_bundle", "classifiers.load_bundle", None),
    (classifiers, "save_lpd_part", "classifiers.save", None),
    (classifiers, "save_cfd_part", "classifiers.save", None),
)

# Layers that run inside timed operations; the CLI runs only in probes.
LAYERS = ("simulate", "trace", "features", "preprocess", "selection", "svm", "classifiers")

# name -> unit, in the order the benchmark reports them.
PER_LAYER_METRICS = {
    "simulate.pair_ms": "ms",
    "simulate.events_per_s": "1/s",
    "simulate.events_per_pair": "count",
    "simulate.retransmissions_per_pair": "count",
    "trace.write_ms": "ms",
    "trace.write_events_per_s": "1/s",
    "trace.write_bytes_per_pair": "bytes",
    "trace.read_ms": "ms",
    "trace.read_events_per_s": "1/s",
    "features.extract_ms": "ms",
    "features.events_per_s": "1/s",
    "preprocess.load_database_ms": "ms",
    "preprocess.scale_ms": "ms",
    "selection.rank_ms": "ms",
    "selection.wrapper_ms": "ms",
    "selection.cv_fits": "count",
    "selection.cv_accuracy": "share",
    "svm.solve_ms": "ms",
    "svm.solves": "count",
    "svm.pair_updates": "count",
    "svm.updates_per_solve": "count",
    "svm.kernel_ms": "ms",
    "svm.decision_us": "us",
    "classifiers.diagnose_ms": "ms",
    "classifiers.predict_us": "us",
    "classifiers.modules_evaluated": "count",
    "classifiers.load_bundle_ms": "ms",
    "classifiers.save_ms": "ms",
    "classifiers.verdict_accuracy": "share",
    "classifiers.compound_fault_accuracy": "share",
    "cli.import_ms": "ms",
    "cli.call_ms": "ms",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "tracing.attributed_pct": "%",
    "tracing.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None, 1.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, scale: float = 1.0):
        rec = self._begin(name)
        rec[SCALE] = scale
        try:
            yield
        finally:
            self._end(rec)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if counter is not None:
                rec[COUNTS] = counter(result, args, kwargs)
            return result

        return traced

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def call(self, root: str, scale: float, fn, *args):
        """fn(*args) under a root span scaled by `scale`, with every
        layer wrapper installed for its duration."""
        self._install()
        try:
            with self.span(root, scale):
                return fn(*args)
        finally:
            self._uninstall()

    def _install(self) -> None:
        for module, attr, name, counter in LAYER_CALLS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def _uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans, untraced_op_s: list[float], outcome: dict) -> dict[str, float]:
    """Per-layer figures: per-call means over every span of the run,
    counts and self time per traced operation, and tracing cost."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] == -1 else root[s[PARENT]])
    dur = [(s[END] - s[START]) * spans[root[i]][SCALE] for i, s in enumerate(spans)]
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
        by_name.setdefault(s[NAME], []).append(i)
    ops = [i for i in children.get(-1, []) if spans[i][NAME] == "op"]
    in_op = {i for i, s in enumerate(spans) if s[PARENT] != -1 and spans[root[i]][NAME] == "op"}
    n_ops = len(ops)

    def per_call(name, scale):
        idx = by_name.get(name, [])
        return sum(dur[i] for i in idx) / len(idx) * scale if idx else 0.0

    def total(name, key, where=None):
        return sum(spans[i][COUNTS][key] for i in by_name.get(name, []) if where is None or i in where)

    def per_item(name, key):
        idx = by_name.get(name, [])
        return total(name, key) / len(idx) if idx else 0.0

    def rate(name, key):
        busy = sum(dur[i] for i in by_name.get(name, []))
        return total(name, key) / busy if busy else 0.0

    def per_op(name, key=None):
        if not n_ops:
            return 0.0
        if key is None:
            return sum(1 for i in by_name.get(name, []) if i in in_op) / n_ops
        return total(name, key, in_op) / n_ops

    solves = len(by_name.get("svm.solve", []))
    m = {
        "simulate.pair_ms": per_call("simulate.pair", 1e3),
        "simulate.events_per_s": rate("simulate.pair", "events"),
        "simulate.events_per_pair": per_item("simulate.pair", "events"),
        "simulate.retransmissions_per_pair": per_item("simulate.pair", "retransmissions"),
        "trace.write_ms": per_call("trace.write", 1e3),
        "trace.write_events_per_s": rate("trace.write", "events"),
        "trace.write_bytes_per_pair": per_item("trace.write", "bytes"),
        "trace.read_ms": per_call("trace.read", 1e3),
        "trace.read_events_per_s": rate("trace.read", "events"),
        "features.extract_ms": per_call("features.extract", 1e3),
        "features.events_per_s": rate("features.extract", "events"),
        "preprocess.load_database_ms": per_call("preprocess.load_database", 1e3),
        "preprocess.scale_ms": per_call("preprocess.scale", 1e3),
        "selection.rank_ms": per_call("selection.rank", 1e3),
        "selection.wrapper_ms": per_call("selection.wrapper", 1e3),
        "selection.cv_fits": per_op("svm.cv_fit"),
        "selection.cv_accuracy": outcome.get("train_cv_accuracy", 0.0),
        "svm.solve_ms": per_call("svm.solve", 1e3),
        "svm.solves": per_op("svm.solve"),
        "svm.pair_updates": per_op("svm.solve", "updates"),
        "svm.updates_per_solve": total("svm.solve", "updates") / solves if solves else 0.0,
        "svm.kernel_ms": per_call("svm.kernel", 1e3),
        "svm.decision_us": per_call("svm.decision", 1e6),
        "classifiers.diagnose_ms": per_call("classifiers.diagnose", 1e3),
        "classifiers.predict_us": per_call("classifiers.predict", 1e6),
        "classifiers.modules_evaluated": per_item("classifiers.diagnose", "modules"),
        "classifiers.load_bundle_ms": per_call("classifiers.load_bundle", 1e3),
        "classifiers.save_ms": per_call("classifiers.save", 1e3),
        "classifiers.verdict_accuracy": outcome.get("verdict_accuracy", 0.0),
        "classifiers.compound_fault_accuracy": outcome.get("compound_fault_accuracy", 0.0),
        "cli.import_ms": per_call("cli.import", 1e3),
        "cli.call_ms": per_call("cli.call", 1e3),
    }

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in in_op:
        self_s[spans[i][NAME].split(".", 1)[0]] += dur[i] - sum(dur[c] for c in children.get(i, []))
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_s[layer] / n_ops * 1e3 if n_ops else 0.0

    op_s = [dur[i] for i in ops]
    covered = sum(dur[c] for i in ops for c in children.get(i, []))
    m["tracing.attributed_pct"] = 100.0 * covered / sum(op_s) if op_s else 0.0
    if op_s and untraced_op_s:
        base = median(untraced_op_s)
        m["tracing.overhead_pct"] = 100.0 * (median(op_s) - base) / base
    else:
        m["tracing.overhead_pct"] = 0.0
    return m


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
