"""Span tracing of the ctgs layers, done from outside the package.

While installed, the tracer replaces each layer's public function with a
wrapper in every ``ctgs`` module namespace that holds it, and wraps
``numpy.linalg.svd``, ``solve`` and ``lstsq`` to count calls. Each wrapped
call records one span: name, start, end, parent span, op id and the
numpy-call counters at entry and exit. Spans stay in memory until the run
writes them out. Nothing in the reports changes, because timing never
reaches them.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "cli.run"

# layer name -> (module, public functions timed under that name)
LAYERS = {
    "problems.parse_problem": ("problems", ("parse_problem",)),
    "spectral.eigendecompose": ("spectral", ("eigendecompose",)),
    "bandwidth.check_uniform": ("bandwidth", ("check_uniform",)),
    "bandwidth.finitize": ("bandwidth", ("finitize",)),
    "bandwidth.is_tight": ("bandwidth", ("is_tight",)),
    "bandwidth.tighten": ("bandwidth", ("tighten",)),
    "planner.build_filtration": ("planner", ("build_filtration",)),
    "planner.find_admissible_sequence": ("planner", ("find_admissible_sequence",)),
    "planner.make_plan": ("planner", ("make_plan",)),
    "planner.choose_spread": ("planner", ("choose_spread",)),
    "planner.redistribute_plan": ("planner", ("redistribute_plan",)),
    "sampling.build_sample_set": ("sampling", ("build_sample_set",)),
    "sampling.redistribute": ("sampling", ("redistribute",)),
    "signals.synthesize_signal": ("signals", ("synthesize_signal",)),
    "sampling.sample_signal": ("sampling", ("sample_signal",)),
    "sampling.recover": ("sampling", ("recover",)),
    "sampling.recovery_error": ("sampling", ("recovery_error",)),
    "reports.emit": ("reports", (
        "spectrum_summary", "uniformity_summary", "tightness_summary", "filtration_summary",
        "sequence_summary", "plan_summary", "sample_set_csv", "observation_csv",
        "plotdata_csv", "emit_json")),
}
SPAN_NAMES = (*LAYERS, ROOT)
NUMPY_COUNTERS = {"svd": ("svd",), "solve": ("solve", "lstsq")}


class Tracer:
    """Collects spans and numpy-call counts for the ops run while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {key: 0 for key in NUMPY_COUNTERS}
        self.stats = defaultdict(int)   # layer-specific counts, see _observe
        self.op_id = None
        self._stack = []
        self._patched = []
        self._t0 = time.perf_counter()

    # --- spans ---------------------------------------------------------------

    def _enter(self, name):
        span = {"id": len(self.spans), "name": name, "op": self.op_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None,
                **{f"{k}0": v for k, v in self.counts.items()}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter() - self._t0
        for key, value in self.counts.items():
            span[key] = value - span.pop(f"{key}0")
        self._stack.pop()

    def run_op(self, fn, *args):
        """Run one op under the root span; ops are numbered in call order."""
        self.op_id = 0 if self.op_id is None else self.op_id + 1
        span = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(span)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._observe(name, None, failed=True)
                raise
            finally:
                self._exit(span)
            self._observe(name, result, failed=False)
            return result
        return traced

    def _observe(self, name, result, failed):
        if name == "planner.redistribute_plan":
            self.stats["redistribute_plan.attempted"] += 1
            self.stats["redistribute_plan.accepted"] += not failed
        elif failed:
            return
        elif name == "sampling.recover":
            for stage in result.diagnostics["stages"]:
                self.stats["recover.rows"] += stage["rows"]
                self.stats["recover.columns"] += stage["columns"]
        elif name == "sampling.sample_signal":
            self.stats["sample_signal.points"] += len(result.entries)

    def _count(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # --- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if (key == "ctgs" or key.startswith("ctgs.")) and m is not None]
        for name, (module, functions) in LAYERS.items():
            for function in functions:
                original = getattr(sys.modules[f"ctgs.{module}"], function)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        for key, functions in NUMPY_COUNTERS.items():
            for function in functions:
                self._patch(np.linalg, function, self._count(key, getattr(np.linalg, function)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- aggregation ---------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time and numpy counts, plus the layer ratios."""
        out = {}
        self_s = self.self_times()
        for name in SPAN_NAMES:
            idx = [i for i, s in enumerate(self.spans) if s["name"] == name]
            out[f"{name}.calls"] = (len(idx), "count")
            out[f"{name}.self_s"] = (sum(self_s[i] for i in idx), "s")
            for key in NUMPY_COUNTERS:
                out[f"{name}.{key}"] = (sum(self.spans[i][key] for i in idx), "count")
        st = self.stats
        out["sampling.recover.rows_per_col"] = (
            st["recover.rows"] / st["recover.columns"] if st["recover.columns"] else 0.0, "ratio")
        out["planner.redistribute_plan.accept_ratio"] = (
            st["redistribute_plan.accepted"] / st["redistribute_plan.attempted"]
            if st["redistribute_plan.attempted"] else 0.0, "ratio")
        out["sampling.sample_signal.points"] = (st["sample_signal.points"], "count")
        return out

    def op_breakdown(self) -> dict:
        """op id -> {column: inclusive seconds} for the ROADMAP table columns."""
        columns = {"planner.build_filtration": "build_filtration",
                   "planner.find_admissible_sequence": "find_admissible_sequence",
                   "sampling.recover": "recover"}
        ops = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            row = ops.setdefault(span["op"], dict.fromkeys(columns.values(), 0.0))
            if span["name"] == ROOT:
                row["total"] = duration
            elif span["name"] in columns:
                row[columns[span["name"]]] += duration
        for row in ops.values():
            row["everything else"] = row["total"] - sum(row[c] for c in columns.values())
        return ops

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "stats": dict(self.stats), **extra}, handle)


TABLE_COLUMNS = ("build_filtration", "find_admissible_sequence", "recover", "everything else")


def per_n_table(rows) -> str:
    """Median per-op milliseconds of each column, by (workload, command, n)."""
    groups = defaultdict(list)
    for workload, command, n, row in rows:
        groups[(workload, command, n)].append(row)
    lines = [f"{'workload':<13}{'command':<13}{'n':>3}{'ops':>5}"
             + "".join(f"{c + ' ms':>30}" for c in TABLE_COLUMNS)]
    for (workload, command, n), group in sorted(groups.items(), key=lambda kv: kv[0][::-1]):
        cells = "".join(f"{statistics.median(r[c] for r in group) * 1e3:>30.2f}"
                        for c in TABLE_COLUMNS)
        lines.append(f"{workload:<13}{command:<13}{n:>3}{len(group):>5}{cells}")
    return "\n".join(lines)
