"""Span tracing for the traced run, kept outside the program.

:func:`install` wraps the program's public layer entry points (functions
and methods listed in :func:`install`) with timing wrappers that append
one :class:`Span` per call to an in-memory list.  :func:`uninstall`
restores the originals, so the untraced run executes the program exactly
as shipped.  :func:`layer_metrics` turns the spans into the per-layer
metrics named in ``BENCHMARK.json``.

Self time is a span's duration minus the durations of its direct child
spans (same thread).  ``busy_s`` is the inclusive time of a layer's
outermost spans, so a layer re-entered through itself is counted once.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    op: str
    start: float
    end: float
    thread: int
    nested: bool
    ok: bool
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread into one list."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, count=None):
        """``fn`` wrapped to record a span (and ``count(args, kwargs, result)``)."""
        op = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            nested = any(name == layer for _, name in stack)
            sid = next(self._ids)
            stack.append((sid, layer))
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, kwargs, result) if (ok and count) else None
                self.spans.append(
                    Span(sid, parent, layer, op, start, end,
                         threading.get_ident(), nested, ok, counts)
                )

        return traced

    def patch_method(self, cls, name: str, layer: str, count=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(original, layer, count))
        self._patched.append((cls, name, original))

    def patch_function(self, module, name: str, layer: str, count=None) -> None:
        """Wrap ``module.name`` and every ``repro`` module's alias of it."""
        original = getattr(module, name)
        wrapper = self.wrap(original, layer, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write every span as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------- #
# what gets wrapped


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 2, "cap_bus"))}


def _problems(args, kwargs, result):
    return {"problems": len(_arg(args, kwargs, 1, "x0s"))}


def _group(args, kwargs, result):
    return {"columns": len(result), "steps": sum(len(r.trace) for r in result)}


def _scalar_steps(args, kwargs, result):
    return {"steps": len(result.trace)}


def _batch(args, kwargs, result):
    computed = [c for c in result.cells if c.ok and not c.cached]
    return {
        "cells": len(result.cells),
        "lockstep_cells": sum(c.engine_backend == "lockstep" for c in computed),
        "scalar_cells": sum(c.engine_backend == "scalar" for c in computed),
        "failed_cells": len(result.failures),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the program (see module doc)."""
    from repro.battery.pack import BatteryPack, BatteryPackVec
    from repro.controllers import batched
    from repro.controllers.cooling_only import CoolingOnlyController
    from repro.controllers.dual_threshold import DualThresholdController
    from repro.controllers.heuristic import HybridHeuristicController
    from repro.controllers.parallel_passive import ParallelPassiveController
    from repro.cooling.loop import CoolingLoop
    from repro.core import lbfgsb_lockstep
    from repro.core.mpc import MPCPlanner, MPCPlannerVec
    from repro.core.otem import OTEMController
    from repro.core.rollout import PredictionModel
    from repro.core.rollout_vec import BatchPredictionModel
    from repro.drivecycle import library, perturb
    from repro.hees.dual import DualHEES, DualHEESVec
    from repro.hees.hybrid import HybridHEES, HybridHEESVec
    from repro.hees.parallel import ParallelHEES, ParallelHEESVec
    from repro.service.client import SweepClient
    from repro.service.jobs import JobManager
    from repro.sim import batch, engine_vec
    from repro.sim.engine import Simulator
    from repro.store import ExperimentStore
    from repro.ultracap.bank import UltracapBank, UltracapBankVec
    from repro.vehicle.powertrain import Powertrain

    methods = [
        ("core.rollout.rollout_cost", PredictionModel, ("rollout_cost",), None),
        ("core.rollout.rollout", PredictionModel, ("rollout",), None),
        (
            "core.rollout_vec",
            BatchPredictionModel,
            ("rollout_costs", "rollout_costs_stacked", "rollout_batch"),
            _rows,
        ),
        ("core.mpc.plan", MPCPlanner, ("plan",), None),
        ("core.mpc.plan_batch", MPCPlannerVec, ("plan_batch",), None),
        ("battery.pack.apply_power", BatteryPack, ("apply_power",), None),
        ("battery.pack.apply_power", BatteryPackVec, ("apply_power",), None),
        ("ultracap.bank.apply_power", UltracapBank, ("apply_power",), None),
        ("ultracap.bank.apply_power", UltracapBankVec, ("apply_power",), None),
        ("cooling.step", CoolingLoop, ("step", "step_batch"), None),
        ("sim.engine", Simulator, ("run",), _scalar_steps),
        ("vehicle.power_request", Powertrain, ("power_request",), None),
        ("store.get", ExperimentStore, ("get",), None),
        ("store.put", ExperimentStore, ("put",), None),
        (
            "store.sweep_records",
            ExperimentStore,
            ("put_sweep", "get_sweep", "put_rows", "get_rows"),
            None,
        ),
        ("service.manager", JobManager, ("submit", "get", "rows"), None),
        ("service.http", SweepClient, ("submit", "status", "rows"), None),
        ("controllers.control", batched.BatchedOTEM, ("control_mpc",), None),
    ]
    for cls in (
        ParallelHEES, DualHEES, HybridHEES,
        ParallelHEESVec, DualHEESVec, HybridHEESVec,
    ):
        methods.append(("hees.step", cls, ("step",), None))
    for cls in (
        ParallelPassiveController, CoolingOnlyController,
        DualThresholdController, HybridHeuristicController, OTEMController,
        batched.BatchedParallelPassive, batched.BatchedCoolingOnly,
        batched.BatchedDualThreshold, batched.BatchedHybridHeuristic,
    ):
        methods.append(("controllers.control", cls, ("control",), None))
    for layer, cls, names, count in methods:
        for name in names:
            tracer.patch_method(cls, name, layer, count)

    functions = [
        ("core.lbfgsb_lockstep", lbfgsb_lockstep, "minimize_lockstep", _problems),
        ("sim.engine_vec", engine_vec, "run_lockstep", None),
        ("sim.engine_vec", engine_vec, "run_lockstep_group", _group),
        ("drivecycle", library, "get_cycle", None),
        ("drivecycle", perturb, "perturbed", None),
        ("sim.batch", batch, "run_batch", _batch),
    ]
    for layer, module, name, count in functions:
        tracer.patch_function(module, name, layer, count)


# ---------------------------------------------------------------------- #
# spans -> per-layer metrics


def _self_times(spans: list) -> dict:
    child_s: dict = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.duration
    return {span.sid: span.duration - child_s.get(span.sid, 0.0) for span in spans}


def _union_s(intervals: list) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list, wall_s: float, solver_stats: list) -> dict:
    """Per-layer metric values from the spans of the traced passes."""
    self_s = _self_times(spans)
    by_layer: dict = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def of(layer, op=None):
        return [s for s in by_layer.get(layer, []) if op is None or s.op == op]

    def calls(layer, op=None):
        return len(of(layer, op))

    def busy(layer):
        return sum(s.duration for s in of(layer) if not s.nested)

    def selft(layer, op=None):
        return sum(self_s[s.sid] for s in of(layer, op))

    def total(layer, key, op=None):
        return sum((s.counts or {}).get(key, 0) for s in of(layer, op))

    m: dict = {}
    for layer in (
        "core.rollout.rollout_cost",
        "core.rollout.rollout",
        "battery.pack.apply_power",
        "ultracap.bank.apply_power",
        "cooling.step",
        "controllers.control",
        "drivecycle",
        "vehicle.power_request",
        "store.get",
        "store.put",
    ):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
    m["store.sweep_records.busy_s"] = busy("store.sweep_records")
    m["hees.step.calls"] = calls("hees.step")
    m["hees.step.self_s"] = selft("hees.step")

    # MPC: planner spans plus the solver's own counters
    solves = sum(s.solves for s in solver_stats)
    evals = calls("core.rollout.rollout_cost") + total("core.rollout_vec", "rows")
    m["core.mpc.plan.calls"] = calls("core.mpc.plan")
    m["core.mpc.plan.self_s"] = selft("core.mpc.plan")
    m["core.mpc.plan_batch.calls"] = calls("core.mpc.plan_batch")
    m["core.mpc.plan_batch.self_s"] = selft("core.mpc.plan_batch")
    m["core.mpc.solves"] = solves
    m["core.mpc.iterations"] = sum(s.total_iterations for s in solver_stats)
    m["core.mpc.evals_per_solve"] = evals / solves if solves else 0.0
    m["core.mpc.warm_win_frac"] = (
        sum(s.wins_warm for s in solver_stats) / solves if solves else 0.0
    )
    m["core.rollout_vec.calls"] = calls("core.rollout_vec")
    m["core.rollout_vec.rows"] = total("core.rollout_vec", "rows")
    m["core.rollout_vec.busy_s"] = busy("core.rollout_vec")
    m["core.lbfgsb_lockstep.calls"] = calls("core.lbfgsb_lockstep")
    m["core.lbfgsb_lockstep.problems"] = total("core.lbfgsb_lockstep", "problems")
    m["core.lbfgsb_lockstep.self_s"] = selft("core.lbfgsb_lockstep")

    m["sim.engine.runs"] = calls("sim.engine")
    m["sim.engine.steps"] = total("sim.engine", "steps")
    m["sim.engine.self_s"] = selft("sim.engine")
    m["sim.engine_vec.groups"] = calls("sim.engine_vec", "run_lockstep_group")
    m["sim.engine_vec.columns"] = total("sim.engine_vec", "columns")
    m["sim.engine_vec.steps"] = total("sim.engine_vec", "steps")
    m["sim.engine_vec.self_s"] = selft("sim.engine_vec")
    m["sim.engine_vec.group_failures"] = sum(
        not s.ok for s in of("sim.engine_vec", "run_lockstep")
    )
    for key in ("cells", "lockstep_cells", "scalar_cells", "failed_cells"):
        m[f"sim.batch.{key}"] = total("sim.batch", key)
    m["sim.batch.self_s"] = selft("sim.batch")

    # service: client spans and server-side manager spans live on different
    # threads; with one closed-loop client every manager span inside a
    # request's window belongs to that request
    http = of("service.http")
    manager = of("service.manager")
    m["service.manager.busy_s"] = busy("service.manager")
    m["service.http.requests"] = len(http)
    inside = sum(
        s.duration
        for s in manager
        if any(h.start <= s.start and s.end <= h.end for h in http)
    )
    m["service.http.overhead_ms"] = (
        1e3 * (sum(h.duration for h in http) - inside) / len(http) if http else 0.0
    )
    submits = sorted(s.end for s in manager if s.op == "submit")
    waits = []
    for run in of("sim.batch"):
        before = [t for t in submits if t <= run.start]
        if before:
            waits.append(run.start - before[-1])
    m["service.queue_wait_ms"] = 1e3 * sum(waits) / len(waits) if waits else 0.0

    m["trace.coverage_frac"] = (
        _union_s([(s.start, s.end) for s in spans]) / wall_s if wall_s else 0.0
    )
    return m
