"""Timing and counting wrappers installed around pharec's public functions.

The tracer patches every module-level binding of each wrapped function (a
function imported with ``from .x import f`` has one binding per importing
module), patches ``LimitCycle.gamma_at`` on the class, and wraps the vector
field and Jacobian callables that the ``models`` factories return.  Nothing
in ``src/`` is edited; ``uninstall`` puts every original binding back.

Each call becomes a span record ``[name, parent, start, end, calls,
duration]`` kept in memory.  Per-step callables (``ode.rk4_step`` and the
vector-field and Jacobian callables, millions of calls per run) are folded
into one aggregate record per (parent span, name) instead, so memory stays
bounded; their time still counts as a child of the enclosing span.  Self
time is derived afterwards from the records: a record's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

PHAREC_MODULES = (
    "averaging", "basis", "coupling", "limit_cycle", "models", "ode",
    "pipeline", "ridge", "serialize", "transforms", "vf_reconstruction",
)

# Span names whose time is reported, total and self, as "<name>_s" and
# "<name>_self_s".
SPAN_NAMES = (
    "pipeline.limit_cycle", "pipeline.transforms", "pipeline.simulate",
    "pipeline.vf", "pipeline.reduce", "pipeline.compare",
    "ode.integrate", "ode.tangent", "ode.rk4_step",
    "models.vf", "models.jacobian", "models.estimate_frame",
    "limit_cycle.find", "limit_cycle.floquet", "limit_cycle.gamma_at",
    "basis.single_row", "basis.pair_row", "basis.series_eval",
    "basis.series_eval_grad",
    "averaging.batch", "averaging.deviation",
    "transforms.fit",
    "ridge.fit",
    "vf_reconstruction.simulate", "vf_reconstruction.fit",
    "vf_reconstruction.differentiate",
    "coupling.reduce",
    "serialize.trial_write", "serialize.trial_read", "serialize.json",
    "serialize.heatmap_write",
)

# Counters that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = (
    "ode.integrate_calls", "ode.state_steps", "ode.rk4_step_calls",
    "models.vf_calls", "models.vf_points", "models.jacobian_calls",
    "limit_cycle.gamma_at_points",
    "basis.single_row_bytes", "basis.pair_row_bytes",
    "averaging.ics", "transforms.samples",
    "ridge.fit_calls", "ridge.design_elements", "ridge.targets",
    "vf_reconstruction.fit_rows", "coupling.pairs",
    "serialize.trial_bytes_written", "serialize.trial_bytes_read",
    "serialize.trial_reads_per_file",
)

RATES = (
    ("ode.state_steps_per_s", "ode.state_steps", "ode.integrate_s", 1.0),
    ("averaging.ics_per_s", "averaging.ics", "averaging.batch_s", 1.0),
    ("serialize.trial_write_MBps", "serialize.trial_bytes_written",
     "serialize.trial_write_s", 1e-6),
    ("serialize.trial_read_MBps", "serialize.trial_bytes_read",
     "serialize.trial_read_s", 1e-6),
)


def _bound(fn, args, kwargs):
    """Call arguments by parameter name, defaults applied."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _planar_points(state) -> int:
    size = state.size if isinstance(state, np.ndarray) else np.size(state)
    return int(size) // 2


class Tracer:
    """Span records, counters and the bindings patched to collect them."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._aggregates: dict[str, dict[int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._read_paths: set[str] = set()

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records one span; ``count(args, result)``
        updates counters from the bound arguments and the return value."""
        records, stack = self.records, self.stack

        def wrapper(*args, **kwargs):
            idx = len(records)
            records.append([name, stack[-1] if stack else -1, 0.0, 0.0, 1, 0.0])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = records[idx]
                rec[2], rec[3], rec[5] = t0, t1, t1 - t0
            if count is not None:
                count(_bound(fn, args, kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name, fn, points=None):
        """Wrap a per-step callable: calls fold into one record per parent.

        A callable already wrapped under ``name`` is returned as it is, and
        a call nested directly inside a call of the same name (a Cartesian
        field evaluated inside its polar wrapper) passes straight through, so
        each evaluation counts once.  ``points`` names the counter that
        accumulates the planar points of the first argument.
        """
        if getattr(fn, "_trace_name", None) == name:
            return fn
        records, stack, counters = self.records, self.stack, self.counters
        by_parent = self._aggregates.setdefault(name, {})

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and records[parent][0] == name:
                return fn(*args, **kwargs)
            idx = by_parent.get(parent)
            if idx is None:
                idx = by_parent[parent] = len(records)
                records.append([name, parent, None, None, 0, 0.0])
            if points is not None:
                counters[points] += _planar_points(args[0])
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                rec = records[idx]
                rec[4] += 1
                rec[5] += d

        wrapper.__wrapped__ = fn
        wrapper._trace_name = name
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, modules, original, replacement):
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {original!r} found")

    def install(self):
        """Patch every binding of the wrapped pharec functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        mods = {m: importlib.import_module(f"pharec.{m}") for m in PHAREC_MODULES}
        modules = list(mods.values())
        c = self.counters

        def add(key, amount):
            c[key] += amount

        def count_integrate(a, _):
            n = int(round(a["duration"] / a["step"]))
            add("ode.integrate_calls", 1)
            add("ode.state_steps", n * _planar_points(a["state0"]))

        def count_ridge(targets_of):
            def count(a, _):
                design = np.asarray(a["design"])
                add("ridge.fit_calls", 1)
                add("ridge.design_elements", design.shape[0] * design.shape[1])
                add("ridge.targets", targets_of(np.asarray(a["targets"])))
            return count

        def count_bytes(key):
            return lambda _, result: add(key, 8 * int(np.size(result)))

        def count_trial_write(a, _):
            add("serialize.trial_bytes_written", os.path.getsize(a["path"]))

        def count_trial_read(a, _):
            self._read_paths.add(os.path.abspath(a["path"]))
            add("serialize.trial_reads", 1)
            add("serialize.trial_bytes_read", os.path.getsize(a["path"]))

        def count_fit_rows(_, nvf):
            add("vf_reconstruction.fit_rows",
                sum(d["rows"] for k, d in nvf.diagnostics.items()
                    if k.endswith(":theta")))

        spans = [
            ("pipeline", "stage_limit_cycle", "pipeline.limit_cycle", None),
            ("pipeline", "stage_transforms", "pipeline.transforms", None),
            ("pipeline", "stage_simulate", "pipeline.simulate", None),
            ("pipeline", "stage_vf", "pipeline.vf", None),
            ("pipeline", "stage_reduce", "pipeline.reduce", None),
            ("pipeline", "stage_compare", "pipeline.compare", None),
            ("ode", "integrate", "ode.integrate", count_integrate),
            ("ode", "integrate_with_tangent", "ode.tangent", None),
            ("models", "estimate_frame", "models.estimate_frame", None),
            ("limit_cycle", "find_limit_cycle", "limit_cycle.find", None),
            ("limit_cycle", "floquet_from_monodromy", "limit_cycle.floquet", None),
            ("basis", "single_row", "basis.single_row",
             count_bytes("basis.single_row_bytes")),
            ("basis", "pair_row", "basis.pair_row",
             count_bytes("basis.pair_row_bytes")),
            ("basis", "series_eval", "basis.series_eval", None),
            ("basis", "series_eval_grad", "basis.series_eval_grad", None),
            ("averaging", "reduced_coordinates_batch", "averaging.batch",
             lambda a, _: add("averaging.ics",
                              np.atleast_2d(np.asarray(a["ics"])).shape[0])),
            ("averaging", "observable_deviation", "averaging.deviation", None),
            ("transforms", "fit_transform_set", "transforms.fit",
             lambda a, _: add("transforms.samples", len(a["samples"]))),
            ("ridge", "ridge_fit", "ridge.fit", count_ridge(lambda t: 1)),
            ("ridge", "ridge_fit_multi", "ridge.fit",
             count_ridge(lambda t: t.shape[1])),
            ("vf_reconstruction", "simulate_trial_set",
             "vf_reconstruction.simulate", None),
            ("vf_reconstruction", "fit_network_vf", "vf_reconstruction.fit",
             count_fit_rows),
            ("vf_reconstruction", "differentiate_trial",
             "vf_reconstruction.differentiate", None),
            ("coupling", "reduce_network_coupling", "coupling.reduce",
             lambda _, rc: add("coupling.pairs", len(rc.series) // 2)),
            ("serialize", "write_trial_csv", "serialize.trial_write",
             count_trial_write),
            ("serialize", "read_trial_csv", "serialize.trial_read",
             count_trial_read),
            ("serialize", "write_json", "serialize.json", None),
            ("serialize", "read_json", "serialize.json", None),
            ("serialize", "write_heatmap_csv", "serialize.heatmap_write", None),
        ]
        try:
            for home, attr, name, count in spans:
                original = getattr(mods[home], attr)
                self._patch_everywhere(modules, original,
                                       self.span(name, original, count))

            rk4 = mods["ode"].rk4_step
            self._patch_everywhere(modules, rk4, self.aggregate("ode.rk4_step", rk4))

            def factory(fn, name, points):
                def make(*args, **kwargs):
                    return self.aggregate(name, fn(*args, **kwargs), points)
                make.__wrapped__ = fn
                return make

            for attr in ("network_vf", "uncoupled_vf", "polar_uncoupled_vf"):
                original = getattr(mods["models"], attr)
                self._patch_everywhere(modules, original,
                                       factory(original, "models.vf",
                                               "models.vf_points"))
            for attr in ("uncoupled_jacobian", "polar_uncoupled_jacobian"):
                original = getattr(mods["models"], attr)
                self._patch_everywhere(modules, original,
                                       factory(original, "models.jacobian", None))

            cycle_cls = mods["limit_cycle"].LimitCycle
            gamma_at = cycle_cls.__dict__["gamma_at"]
            self._patches.append((cycle_cls, "gamma_at", gamma_at))
            cycle_cls.gamma_at = self.span(
                "limit_cycle.gamma_at", gamma_at,
                lambda a, _: add("limit_cycle.gamma_at_points",
                                 int(np.size(a["theta"]))))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore every patched binding, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.records)
        for rec in self.records:
            if rec[1] >= 0:
                child[rec[1]] += rec[5]
        return [rec[5] - child[i] for i, rec in enumerate(self.records)]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced run whose timed part took wall_s."""
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_t = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = defaultdict(int)
        names = [rec[0] for rec in self.records]
        for i, (rec, st) in enumerate(zip(self.records, self.self_times())):
            name = rec[0]
            self_t[name] += st
            calls[name] += rec[4]
            # Count a span's total once, even when it nests in itself.
            p = rec[1]
            while p >= 0 and names[p] != name:
                p = self.records[p][1]
            if p < 0:
                total[name] += rec[5]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = self_t[name]
        counters = dict(self.counters)
        counters["ode.rk4_step_calls"] = calls["ode.rk4_step"]
        counters["models.vf_calls"] = calls["models.vf"]
        counters["models.jacobian_calls"] = calls["models.jacobian"]
        reads = counters.pop("serialize.trial_reads", 0)
        counters["serialize.trial_reads_per_file"] = (
            reads / len(self._read_paths) if self._read_paths else 0.0)
        for key in EXACT_COUNTS:
            out[key] = counters.get(key, 0)
        for key, num, den, scale in RATES:
            out[key] = out[num] * scale / out[den] if out[den] > 0 else 0.0
        accounted = sum(self_t.values())
        roots = sum(rec[5] for rec in self.records if rec[1] < 0)
        out["trace.accounted_s"] = accounted
        out["trace.outside_spans_s"] = wall_s - roots
        return out

    def write_spans(self, path: str):
        """Write the span records as JSON (name, parent, start, end, calls,
        duration, self), one list per record."""
        rows = [rec + [st] for rec, st in zip(self.records, self.self_times())]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "calls",
                                  "duration", "self"], "spans": rows}, fh)
            fh.write("\n")

