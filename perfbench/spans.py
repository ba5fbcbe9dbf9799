"""Span tracing around the package's public functions, from outside.

Installing a ``Tracer`` replaces each target function by a wrapper in every
loaded ``spincat`` module that binds it, so calls made through
``spincat.cli``'s and ``spincat.protocol``'s own imported names are seen
too.  Each call records a span (id, name, start, end, parent id, command id,
work counts) in memory; self times are derived from the spans afterwards.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _quadrature_span(args, kwargs):
    basis = kwargs.get("basis", args[2] if len(args) > 2 else None)
    return "state.to_quadrature." + getattr(basis, "value", str(basis))


def _quadrature_counts(args, kwargs, result):
    from spincat.state import effective_max_index
    state = kwargs.get("state", args[0])
    return {"points": result.grid.count, "levels": effective_max_index(state) + 1}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[-1]))}


# (module, attribute, span name, counter).  The span name may be a function
# of the call's arguments; the counter reads work counts off a finished call.
TARGETS = [
    ("spincat.cli", "main", "cli.main", None),
    ("spincat.state", "to_quadrature", _quadrature_span, _quadrature_counts),
    ("spincat.state", "choose_truncation", "state.choose_truncation",
     lambda args, kwargs, result: {"n_max": result}),
    ("spincat.state", "RandomSource.for_trajectory",
     "state.RandomSource.for_trajectory", None),
    ("spincat.protocol", "squeezed_state_exact", "protocol.squeezed_state", None),
    ("spincat.protocol", "squeezed_state_stirling", "protocol.squeezed_state", None),
    ("spincat.protocol", "apply_number_qnd", "protocol.apply_number_qnd", None),
    ("spincat.protocol", "quadrature_variances", "protocol.quadrature_variances", None),
    ("spincat.protocol", "sample_first_outcome", "protocol.sample_first_outcome", None),
    ("spincat.protocol", "sample_second_outcome", "protocol.sample_second_outcome", None),
    ("spincat.protocol", "mu_of_outcome", "protocol.mu_of_outcome", None),
    ("spincat.cat", "check_cat_conditions", "cat.check_cat_conditions", None),
    ("spincat.cat", "compute_cat_metrics", "cat.compute_cat_metrics", None),
    ("spincat.cat", "approx_p_wavefunction", "cat.approx_wavefunction", None),
    ("spincat.cat", "approx_x_wavefunction", "cat.approx_wavefunction", None),
    ("spincat.cat", "overlap", "cat.overlap", None),
    ("spincat.feasibility", "evaluate_scenario", "feasibility.evaluate_scenario", None),
    ("spincat.io", "write_wavefunction_csv", "io.write_wavefunction_csv", _written_bytes),
    ("spincat.io", "write_number_state_csv", "io.write_number_state_csv", _written_bytes),
    ("spincat.io", "write_json", "io.write_json", _written_bytes),
    ("spincat.io", "write_json_lines", "io.write_json_lines", _written_bytes),
    ("spincat.io", "write_histogram_csv", "io.write_histogram_csv", _written_bytes),
]

_IO_WRITERS = ("io.write_wavefunction_csv", "io.write_number_state_csv",
               "io.write_json", "io.write_json_lines", "io.write_histogram_csv")

# Per-layer metrics: (name, unit, span names, statistic).  The statistic is
# "self_s" (summed self time), "calls", or a work count summed over spans.
LAYER_METRICS = [
    ("state.to_quadrature.x.self_s", "s", ("state.to_quadrature.x",), "self_s"),
    ("state.to_quadrature.p.self_s", "s", ("state.to_quadrature.p",), "self_s"),
    ("state.to_quadrature.x.calls", "count", ("state.to_quadrature.x",), "calls"),
    ("state.to_quadrature.p.calls", "count", ("state.to_quadrature.p",), "calls"),
    ("state.to_quadrature.x.points", "count", ("state.to_quadrature.x",), "points"),
    ("state.to_quadrature.p.points", "count", ("state.to_quadrature.p",), "points"),
    ("state.to_quadrature.x.levels", "count", ("state.to_quadrature.x",), "levels"),
    ("state.to_quadrature.p.levels", "count", ("state.to_quadrature.p",), "levels"),
    ("state.RandomSource.for_trajectory.self_s", "s",
     ("state.RandomSource.for_trajectory",), "self_s"),
    ("state.choose_truncation.n_max", "count", ("state.choose_truncation",), "n_max"),
    ("protocol.sample_first_outcome.self_s", "s", ("protocol.sample_first_outcome",), "self_s"),
    ("protocol.sample_second_outcome.self_s", "s",
     ("protocol.sample_second_outcome",), "self_s"),
    ("protocol.sample_second_outcome.calls", "count",
     ("protocol.sample_second_outcome",), "calls"),
    ("protocol.mu_of_outcome.self_s", "s", ("protocol.mu_of_outcome",), "self_s"),
    ("protocol.squeezed_state.self_s", "s", ("protocol.squeezed_state",), "self_s"),
    ("protocol.apply_number_qnd.self_s", "s", ("protocol.apply_number_qnd",), "self_s"),
    ("protocol.quadrature_variances.self_s", "s",
     ("protocol.quadrature_variances",), "self_s"),
    ("cat.check_cat_conditions.self_s", "s", ("cat.check_cat_conditions",), "self_s"),
    ("cat.compute_cat_metrics.self_s", "s", ("cat.compute_cat_metrics",), "self_s"),
    ("cat.approx_wavefunction.self_s", "s", ("cat.approx_wavefunction",), "self_s"),
    ("cat.overlap.self_s", "s", ("cat.overlap",), "self_s"),
    ("feasibility.evaluate_scenario.self_s", "s", ("feasibility.evaluate_scenario",), "self_s"),
    ("feasibility.evaluate_scenario.calls", "count",
     ("feasibility.evaluate_scenario",), "calls"),
    ("io.write_wavefunction_csv.self_s", "s", ("io.write_wavefunction_csv",), "self_s"),
    ("io.write_number_state_csv.self_s", "s", ("io.write_number_state_csv",), "self_s"),
    ("io.write_json.self_s", "s", ("io.write_json",), "self_s"),
    ("io.write_json_lines.self_s", "s", ("io.write_json_lines",), "self_s"),
    ("io.write_histogram_csv.self_s", "s", ("io.write_histogram_csv",), "self_s"),
    ("io.bytes_written", "B", _IO_WRITERS, "bytes"),
    ("cli.main.self_s", "s", ("cli.main",), "self_s"),
]

# Statistics that count work rather than time; they must repeat exactly
# from one batch to the next.
WORK_COUNTS = ("calls", "points", "levels", "n_max", "bytes")


class Tracer:
    """In-memory span recorder.  Not thread-safe: the benchmark is a single
    closed-loop client."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                label = name(args, kwargs) if callable(name) else name
                counts = counter(args, kwargs, result) if counter and ok else None
                tracer.spans.append((span_id, label, start, end, parent,
                                     tracer.command, counts))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
                setattr(cls, method, wrapped)
                self._patched.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "spincat" and not loaded_name.startswith("spincat."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
                        self._patched.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans) -> dict:
    """Per span name: summed self time, call count and summed work counts.
    Self time is a span's duration minus the durations of its direct
    children, which nest inside it because calls are synchronous."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, _, _, counts in spans:
        entry = totals[name]
        entry["self_s"] += end - start - child_time[span_id]
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] += value
    return totals


def layer_metrics(totals: dict) -> dict:
    out = {}
    for metric, _, names, stat in LAYER_METRICS:
        value = sum(totals[name][stat] for name in names if name in totals)
        out[metric] = int(value) if stat in WORK_COUNTS else value
    return out
