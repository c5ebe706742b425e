"""Per-layer spans around screenlab's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function that a screenlab module
defines, plus the few methods the layer metrics need.  Intra-package imports
such as ``from ._roots import bisect_monotone`` bind a function into the
importing module when it is imported, so each wrapper is rebound under every
module attribute that refers to the original, not only in the defining
module.

A span is (function, parent span, nested, start, end, extra).  ``extra`` is a
count read from the call: elements evaluated by a score call, iterations of
a bisection, rows rendered to CSV, bytes written.  Spans stay in flat arrays
in memory until the run ends; ``op_metrics`` then reduces the spans of one
operation to the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "scores", "_roots", "thresholds", "regret", "population", "cli")

# methods the layer metrics need, beside the modules' public functions
METHODS = {
    "model": (("ModelConfig", "from_dict"), ("ModelConfig", "from_json_path")),
    "population": (("StageOneData", "records"),),
    "cli": (("RunManifest", "write"),),
}

# cli.fmt runs once per CSV cell: a span per cell would cost more than the
# cell, so its time stays in render_csv's self time
UNTRACED = {"cli.fmt"}

# the count each span records, from the call's arguments and result
EXTRAS = {
    "scores.score_s1": lambda args, result: int(np.size(result)),
    "scores.score_s2": lambda args, result: int(np.size(result)),
    "_roots.bisect_monotone": lambda args, result: result.iterations,
    "cli.render_csv": lambda args, result: result.count("\n") - 1,
    "cli.write_atomic": lambda args, result: os.path.getsize(args[0]),
}

# score calls by the number of elements evaluated
PANEL_MAX = 100        # quadrature panels evaluate 60 nodes
POPULATION_MIN = 100_000

# every per-layer metric with its unit; counts and bytes repeat exactly
# between runs on the same inputs, the rest are times and ratios
UNITS = {
    "model.config_load_s": "s",
    "scores.scalar.calls": "count",
    "scores.scalar.us_per_call": "us",
    "scores.panel.calls": "count",
    "scores.panel.us_per_call": "us",
    "scores.grid.calls": "count",
    "scores.pop.calls": "count",
    "scores.pop.ns_per_elem": "ns",
    "scores.self_s": "s",
    "roots.bisect.calls": "count",
    "roots.bisect.iterations": "count",
    "roots.bisect.s": "s",
    "thresholds.threshold_report.s": "s",
    "thresholds.find_regret_crossings.s": "s",
    "thresholds.find_tau_bar.s": "s",
    "thresholds.tau_bar_mc.passes": "count",
    "regret.expected_regret.calls": "count",
    "regret.expected_regret.ms_per_call": "ms",
    "regret.breakpoint.scalar_calls": "count",
    "regret.panels": "count",
    "regret.regret_curve.s": "s",
    "population.sample_population.s": "s",
    "population.run_stage_one.s": "s",
    "population.empirical_scores.s": "s",
    "population.mc_average_regret.s": "s",
    "population.records.s": "s",
    "cli.render_csv.rows": "count",
    "cli.render_csv.self_s": "s",
    "cli.render_csv.ns_per_row": "ns",
    "cli.write_atomic.bytes": "bytes",
    "cli.write_atomic.s": "s",
    "cli.manifest.s": "s",
    "trace.overhead_frac": "ratio",
}
COUNTS = {name for name, unit in UNITS.items() if unit in ("count", "bytes")}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, nid: int, nested: bool) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.nested.append(nested)
        self.start.append(0.0)
        self.end.append(0.0)
        self.extra.append(0)
        return idx

    def _wrap(self, fn, label: str):
        nid = len(self.labels)
        self.labels.append(label)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return self._timed_iter(fn(*args, **kwargs), nid)
            return traced_generator

        extra = EXTRAS.get(label)
        stack, start, end, extra_a = self.stack, self.start, self.end, self.extra
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid, depth[0] > 0)
            stack.append(idx)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if extra is not None:
                extra_a[idx] = extra(args, result)
            return result

        return traced

    def _timed_iter(self, inner, nid: int):
        """Yield from ``inner``, recording the time spent inside it.

        The span opens at the first ``next``, so its parent is the span that
        consumes the rows (render_csv), and its duration is the generator's
        busy time, not its lifetime.
        """
        idx = self._open(nid, False)
        first = perf_counter()
        busy = 0.0
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += perf_counter() - t0
                    return
                busy += perf_counter() - t0
                yield item
        finally:
            self.start[idx] = first
            self.end[idx] = first + busy

    def install(self) -> None:
        import screenlab

        modules = {layer: importlib.import_module(f"screenlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                label = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and label not in UNTRACED):
                    wrappers[id(obj)] = (obj, self._wrap(obj, label))
        for module in (screenlab, *modules.values()):
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, wrapper)
        for layer, methods in METHODS.items():
            for cls_name, method in methods:
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[method]
                label = f"{layer}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(raw.__func__, label)))
                else:
                    setattr(cls, method, self._wrap(raw, label))

    def durations(self, label: str, a: int, b: int) -> list[float]:
        """Durations of the outermost spans of ``label`` among spans [a, b)."""
        nid = self.labels.index(label)
        return [
            self.end[i] - self.start[i]
            for i in range(a, b)
            if self.name[i] == nid and not self.nested[i]
        ]

    def op_metrics(self, a: int, b: int) -> tuple[dict[str, float], dict[str, list]]:
        """Per-layer metrics of the spans [a, b) of one operation.

        Also returns, per function, [calls, inclusive seconds, self seconds].
        """
        name = np.array(self.name[a:b], dtype=np.int64)
        parent = np.array(self.parent[a:b], dtype=np.int64) - a
        nested = np.array(self.nested[a:b], dtype=bool)
        dur = np.array(self.end[a:b]) - np.array(self.start[a:b])
        extra = np.array(self.extra[a:b], dtype=np.int64)
        n = len(name)
        inside = parent >= 0
        children = np.bincount(parent[inside], weights=dur[inside], minlength=n)
        self_time = dur - children
        ids = {label: nid for nid, label in enumerate(self.labels)}
        layer_of = np.array([label.split(".")[0] for label in self.labels])

        def is_(label):
            return name == ids[label]

        # ancestors: parents precede their children in the span arrays
        er_id, tb_id = ids["regret.expected_regret"], ids["thresholds.find_tau_bar"]
        names, parents = name.tolist(), parent.tolist()
        under_er = [False] * n
        under_tb = [False] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                under_er[i] = under_er[p] or names[p] == er_id
                under_tb[i] = under_tb[p] or names[p] == tb_id
        under_er = np.array(under_er, dtype=bool)
        under_tb = np.array(under_tb, dtype=bool)

        def inclusive(label):
            return float(dur[is_(label) & ~nested].sum())

        def per_call(mask, scale):
            calls = int(mask.sum())
            return float(dur[mask].sum()) / calls * scale if calls else 0.0

        score = is_("scores.score_s1") | is_("scores.score_s2")
        scalar = score & (extra == 1)
        panel = score & (extra >= 2) & (extra <= PANEL_MAX)
        grid = score & (extra > PANEL_MAX) & (extra < POPULATION_MIN)
        pop = score & (extra >= POPULATION_MIN)
        bisect = is_("_roots.bisect_monotone") | is_("_roots.bisect_monotone_many")
        tau_bar_calls = int(is_("thresholds.find_tau_bar").sum())
        er = is_("regret.expected_regret")
        render = is_("cli.render_csv")
        rows = int(extra[render].sum())
        render_self = float(self_time[render].sum())
        metrics = {
            "scores.scalar.calls": int(scalar.sum()),
            "scores.scalar.us_per_call": per_call(scalar, 1e6),
            "scores.panel.calls": int(panel.sum()),
            "scores.panel.us_per_call": per_call(panel, 1e6),
            "scores.grid.calls": int(grid.sum()),
            "scores.pop.calls": int(pop.sum()),
            "scores.pop.ns_per_elem": (
                float(dur[pop].sum()) / int(extra[pop].sum()) * 1e9 if pop.any() else 0.0
            ),
            "scores.self_s": float(self_time[layer_of[name] == "scores"].sum()),
            "roots.bisect.calls": int(bisect.sum()),
            "roots.bisect.iterations": int(extra[is_("_roots.bisect_monotone")].sum()),
            "roots.bisect.s": float(dur[bisect & ~nested].sum()),
            "thresholds.threshold_report.s": inclusive("thresholds.threshold_report"),
            "thresholds.find_regret_crossings.s": inclusive("thresholds.find_regret_crossings"),
            "thresholds.find_tau_bar.s": inclusive("thresholds.find_tau_bar"),
            "thresholds.tau_bar_mc.passes": (
                int((pop & under_tb).sum()) / 2 / tau_bar_calls if tau_bar_calls else 0.0
            ),
            "regret.expected_regret.calls": int(er.sum()),
            "regret.expected_regret.ms_per_call": per_call(er, 1e3),
            "regret.breakpoint.scalar_calls": int((scalar & under_er).sum()),
            "regret.panels": int((panel & under_er).sum()),
            "regret.regret_curve.s": inclusive("regret.regret_curve"),
            "population.sample_population.s": inclusive("population.sample_population"),
            "population.run_stage_one.s": inclusive("population.run_stage_one"),
            "population.empirical_scores.s": inclusive("population.empirical_scores"),
            "population.mc_average_regret.s": inclusive("population.mc_average_regret"),
            "population.records.s": inclusive("population.StageOneData.records"),
            "cli.render_csv.rows": rows,
            "cli.render_csv.self_s": render_self,
            "cli.render_csv.ns_per_row": render_self / rows * 1e9 if rows else 0.0,
            "cli.write_atomic.bytes": int(extra[is_("cli.write_atomic")].sum()),
            "cli.write_atomic.s": inclusive("cli.write_atomic"),
            "cli.manifest.s": inclusive("cli.RunManifest.write"),
        }
        functions = {}
        for label, nid in ids.items():
            mask = name == nid
            if mask.any():
                functions[label] = [
                    int(mask.sum()),
                    float(dur[mask & ~nested].sum()),
                    float(self_time[mask].sum()),
                ]
        return metrics, functions
