"""Outside-in tracing: spans around calls into confpce's public functions.

The tracer replaces each traced function in every ``confpce`` module that
holds it, because the package imports functions by name (``harness`` calls
its own ``fit`` and ``sample_design`` bindings, ``conformal`` its own
``predict``), so patching only the defining module would miss those calls.
Each call records a span ``[name, start, end, parent index, op id]``; spans
stay in memory until the run ends. Counts are taken at the same boundaries,
after the span's end time, so the bookkeeping is not charged to the span.

Per-layer metrics are per operation: run totals divided by the number of
operations traced. Runs execute whole cycles of operations, so every count
metric repeats exactly from one run to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

# (defining module, function) -> layer. Several functions may share a layer.
TRACED = {
    ("confpce.basis", "to_reference"): "basis.eval",
    ("confpce.basis", "eval_basis_matrix"): "basis.eval",
    ("confpce.benchmarks", "sample_design"): "benchmarks.sample",
    ("confpce.pce", "fit"): "pce.fit",
    ("confpce.pce", "predict"): "pce.predict",
    ("confpce.pce", "loo_predict"): "pce.loo_predict",
    ("confpce.pce", "to_json"): "pce.to_json",
    ("confpce.pce", "from_json"): "pce.from_json",
    ("confpce.conformal", "prediction_intervals"): "conformal.intervals",
    ("confpce.conformal", "interval_arrays"): "conformal.intervals",
    ("confpce.conformal", "empirical_coverage"): "conformal.coverage",
    ("confpce.harness", "run_grid"): "harness.run_grid",
    ("confpce.harness", "run_cell"): "harness.run_cell",
    ("confpce.harness", "aggregate_records"): "harness.aggregate",
    ("confpce.harness", "emit_report"): "harness.emit_report",
    ("confpce.cli", "main"): "cli.main",
    ("confpce.cli", "cmd_fit"): "cli.fit",
    ("confpce.cli", "cmd_interval"): "cli.interval",
}

LAYERS = tuple(dict.fromkeys(TRACED.values()))

# Metrics that must repeat exactly between two runs of the same workload.
COUNT_METRICS = (
    "basis.eval.calls",
    "basis.eval.rows",
    "basis.rows_per_point",
    "benchmarks.sample.calls",
    "pce.fit.calls",
    "pce.fits_per_design",
    "pce.loo_predict.calls",
    "pce.loo_predict.gflop",
    "pce.loo_predict.mbytes",
    "pce.to_json.bytes",
    "cli.files.bytes",
    "conformal.intervals.objects",
)

OP = "op"

PER_LAYER_UNITS = {
    "basis.eval.calls": "calls/op",
    "basis.eval.rows": "rows/op",
    "basis.eval.self_s": "s/op",
    "basis.rows_per_point": "ratio",
    "benchmarks.sample.calls": "calls/op",
    "benchmarks.sample.self_s": "s/op",
    "pce.fit.calls": "calls/op",
    "pce.fit.self_s": "s/op",
    "pce.fits_per_design": "ratio",
    "pce.predict.self_s": "s/op",
    "pce.loo_predict.calls": "calls/op",
    "pce.loo_predict.self_s": "s/op",
    "pce.loo_predict.gflop": "GFLOP/op",
    "pce.loo_predict.mbytes": "MB/op",
    "pce.to_json.self_s": "s/op",
    "pce.to_json.bytes": "B/op",
    "pce.from_json.self_s": "s/op",
    "conformal.intervals.self_s": "s/op",
    "conformal.intervals.objects": "objects/op",
    "conformal.coverage.self_s": "s/op",
    "conformal.peak_mb": "MB",
    "harness.run_grid.self_s": "s/op",
    "harness.run_cell.self_s": "s/op",
    "harness.aggregate.self_s": "s/op",
    "harness.emit_report.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.fit.self_s": "s/op",
    "cli.interval.self_s": "s/op",
    "cli.files.bytes": "B/op",
    "trace.op_wall_s": "s/op",
    "trace.ops_per_s": "1/s",
    "trace.unattributed_share": "share",
}


def _rows(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=float))


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.memory = False
        self.active = True
        self.peak_bytes = 0
        self._stack: list[int] = []
        self._op_points: list[np.ndarray] = []
        self._op_designs: set[bytes] = set()
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "confpce" or n.startswith("confpce.")]
        for (mod_name, fn_name), layer in TRACED.items():
            original = getattr(sys.modules[mod_name], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name.split('.')[-1]}.{fn_name}", layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, name, layer, fn):
        hook = _HOOKS.get(name)
        outer_interval = layer == "conformal.intervals"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            probe = self.memory and outer_interval and not self._inside(layer)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if probe:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if probe:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _inside(self, layer) -> bool:
        return any(TRACED_LAYER_BY_NAME.get(self.spans[i][0]) == layer for i in self._stack)

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> list:
        self.op_id = op_id
        span = [OP, 0.0, 0.0, None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end_op(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self.op_id = None
        if self._op_points:
            rows = np.concatenate(self._op_points)
            rows = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
            self.counts["basis.distinct_points"] += int(np.unique(rows).shape[0])
        self.counts["pce.distinct_designs"] += len(self._op_designs)
        self._op_points.clear()
        self._op_designs.clear()

    def reset(self) -> None:
        """Forgets spans and counts recorded so far (after a warm-up)."""
        self.spans.clear()
        self.counts.clear()
        self.peak_bytes = 0

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-operation layer metrics computed from the recorded spans."""
        self_s, wall, ops = layer_self_times(self.spans)
        c = self.counts

        def per_op(total) -> float:
            return float(Fraction(total, ops)) if ops else 0.0

        def ratio(num, den) -> float:
            return float(Fraction(num, den)) if den else 0.0

        out = {
            "basis.eval.calls": per_op(c["basis.eval.calls"]),
            "basis.eval.rows": per_op(c["basis.eval.rows"]),
            "basis.rows_per_point": ratio(c["basis.eval.rows"], c["basis.distinct_points"]),
            "benchmarks.sample.calls": per_op(c["benchmarks.sample.calls"]),
            "pce.fit.calls": per_op(c["pce.fit.calls"]),
            "pce.fits_per_design": ratio(c["pce.fit.calls"], c["pce.distinct_designs"]),
            "pce.loo_predict.calls": per_op(c["pce.loo_predict.calls"]),
            "pce.loo_predict.gflop": ratio(c["pce.loo_predict.flop"], ops * 10**9),
            "pce.loo_predict.mbytes": ratio(c["pce.loo_predict.bytes"], ops * 10**6),
            "pce.to_json.bytes": per_op(c["pce.to_json.bytes"]),
            "cli.files.bytes": per_op(c["cli.files.bytes"]),
            "conformal.intervals.objects": per_op(c["conformal.intervals.objects"]),
            "conformal.peak_mb": self.peak_bytes / 1e6,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer] / ops if ops else 0.0
        out["trace.op_wall_s"] = wall / ops if ops else 0.0
        out["trace.ops_per_s"] = ops / wall if wall else 0.0
        out["trace.unattributed_share"] = self_s[OP] / wall if wall else 0.0
        return {name: out[name] for name in PER_LAYER_UNITS}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


TRACED_LAYER_BY_NAME = {f"{m.split('.')[-1]}.{f}": layer for (m, f), layer in TRACED.items()}


def layer_self_times(spans) -> tuple[dict[str, float], float, int]:
    """Self time per layer, total op wall time and op count.

    A span's self time is its duration minus the durations of its direct
    children; an op span's self time is time no traced layer accounts for.
    """
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    wall, ops = 0.0, 0
    for i, (name, start, end, _, _) in enumerate(spans):
        own = end - start - child[i]
        if name == OP:
            self_s[OP] += own
            wall += end - start
            ops += 1
        else:
            self_s[TRACED_LAYER_BY_NAME[name]] += own
    return self_s, wall, ops


# -- count hooks: (tracer, args, kwargs, result) ------------------------------

def _count_basis(tr: Tracer, args, kwargs, result):
    xi = _rows(args[0] if args else kwargs["xi"])
    tr.counts["basis.eval.calls"] += 1
    tr.counts["basis.eval.rows"] += xi.shape[0]
    tr._op_points.append(xi.copy())


def _count_sample(tr: Tracer, args, kwargs, result):
    tr.counts["benchmarks.sample.calls"] += 1


def _count_fit(tr: Tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tr.counts["pce.fit.calls"] += 1
    tr._op_designs.add(hashlib.blake2b(np.ascontiguousarray(data.inputs).tobytes()).digest())


def _count_loo(tr: Tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    values = _rows(result)
    n, m = values.shape
    k = len(model.index_set)
    tr.counts["pce.loo_predict.calls"] += 1
    tr.counts["pce.loo_predict.flop"] += 2 * n * m * k
    tr.counts["pce.loo_predict.bytes"] += n * m * 8


def _count_json(tr: Tracer, args, kwargs, result):
    # json.dumps escapes non-ASCII by default, so characters are bytes.
    tr.counts["pce.to_json.bytes"] += len(result)


def _count_objects(tr: Tracer, args, kwargs, result):
    if isinstance(result, list):
        tr.counts["conformal.intervals.objects"] += len(result)


def _count_file(tr: Tracer, args, kwargs, result):
    path = (args[0] if args else kwargs["args"]).out
    if result == 0 and os.path.exists(path):
        tr.counts["cli.files.bytes"] += os.path.getsize(path)


_HOOKS = {
    "cli.cmd_fit": _count_file,
    "cli.cmd_interval": _count_file,
    "basis.eval_basis_matrix": _count_basis,
    "benchmarks.sample_design": _count_sample,
    "pce.fit": _count_fit,
    "pce.loo_predict": _count_loo,
    "pce.to_json": _count_json,
    "conformal.prediction_intervals": _count_objects,
}
