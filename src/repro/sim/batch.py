"""Parallel batch execution of scenario grids, with a result cache.

Every sweep in the evaluation - Table I's bank sizes, the ambient
temperature extension, the Monte-Carlo robustness ensemble - is an
embarrassingly parallel grid of independent :class:`~repro.sim.scenario.
Scenario` cells.  :func:`run_batch` fans such a grid out across worker
processes and aggregates the per-cell :class:`~repro.sim.metrics.
SummaryMetrics` into a :class:`BatchResult`:

* **deterministic ordering** - cell ``i`` of the result is always scenario
  ``i`` of the input, regardless of which worker finished first;
* **crash isolation** - a diverging solve (or any exception) fails *that
  cell* (``cell.error``) instead of the sweep;
* **per-scenario timeout** - a best-effort wall-clock budget per cell
  (a cell that exceeds it is marked failed and abandoned);
* **content-addressed caching** - an on-disk store keyed by a fingerprint
  of the full scenario (controller, pack, vehicle, coolant, weights, MPC
  knobs) plus the engine backend assigned to the cell, so repeated sweeps
  and CI re-runs skip already-computed cells; pass ``store=`` (a
  :class:`repro.store.ExperimentStore`) instead of ``cache=`` for the
  durable SQLite+npz variant the sweep service resumes from;
* **lockstep vectorization** - cells that share an architecture (and,
  for OTEM, a solver shape) are batched onto the struct-of-arrays engine
  (:mod:`repro.sim.engine_vec`), advancing the whole group per NumPy step
  instead of per-cell Python loops.  This covers the four baselines *and*
  OTEM cells running the vectorized rollout backend, whose replan waves
  are solved in lockstep by :class:`repro.core.mpc.MPCPlannerVec`;
  scalar-backend OTEM cells and singleton groups stay on the scalar
  engine (``execution="auto"``).

Serial execution (``workers=0``) goes through exactly the same cell
runner, so parallel results are bitwise identical to serial ones (see
tests/sim/test_batch.py).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.mpc import SolverStats
from repro.sim.engine_vec import lockstep_key, lockstep_supported, run_lockstep
from repro.sim.metrics import SummaryMetrics
from repro.sim.scenario import Scenario, run_scenario

#: Bump when the cached payload layout or the simulation semantics change
#: in a way that must invalidate existing cache entries.
#: 2: SolverStats gained ``backend``; Scenario gained ``rollout_backend``.
#: 3: CellPayload gained ``engine_backend``; fingerprints include the
#:    engine backend assigned to the cell (lockstep engine added).
#: 4: OTEM cells may be lockstep-assigned (batched MPC); SolverStats
#:    gained warm-start winner attribution (``wins_*``).
CACHE_SCHEMA = 4

#: Accepted ``run_batch(execution=...)`` modes.
EXECUTION_MODES = ("auto", "lockstep", "scalar")

_log = logging.getLogger("repro")

#: Default cache directory (created on first use; gitignored).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Error string marking cells skipped by a :func:`run_batch` ``cancel``
#: hook (the sweep service matches on the ``"cancelled"`` prefix).
_CANCELLED_ERROR = "cancelled: sweep cancelled before this cell ran"


# ---------------------------------------------------------------------- #
# fingerprinting


def scenario_fingerprint(scenario: Scenario, engine_backend: str = "scalar") -> str:
    """Content hash of everything that determines a scenario's result.

    Recursively serializes the scenario's dataclass tree (pack, vehicle,
    coolant, weights, MPC knobs included) into canonical JSON and hashes
    it together with the cache schema, the package version, and the engine
    backend the cell is assigned to, so any parameter change - however
    deep - yields a different key.  The backend is part of the key because
    lockstep results match scalar ones only to ~1e-15 relative (transcen-
    dental SIMD kernels), and a cache must never blur which engine
    produced a number.  Assignment is decided from the full input grid
    *before* any cache lookup, so fingerprints are deterministic for a
    given ``run_batch`` call regardless of cache state.
    """
    import repro  # late: repro/__init__ may still be executing at import time

    payload = {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "engine_backend": engine_backend,
        "scenario": dataclasses.asdict(scenario),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# the per-cell payload (what workers return and the cache stores)


@dataclass(frozen=True)
class CellPayload:
    """Picklable result of one scenario run (no trace - summaries only).

    ``engine_backend`` records which engine computed the cell
    (``"scalar"`` or ``"lockstep"``); lockstep cells report their share of
    the group wall time (group wall / group size) as ``wall_s``.
    """

    controller_name: str
    cycle_name: str
    metrics: SummaryMetrics
    solver: SolverStats | None
    wall_s: float
    engine_backend: str = "scalar"


@dataclass(frozen=True)
class BatchCell:
    """One grid cell of a :class:`BatchResult`.

    ``metrics`` is ``None`` exactly when ``error`` is set; ``cached`` marks
    cells served from the result cache (their ``wall_s`` is the original
    compute time, not the lookup time).  ``engine_backend`` names the
    engine that computed the cell (``"scalar"`` or ``"lockstep"``).
    """

    index: int
    scenario: Scenario
    metrics: SummaryMetrics | None = None
    solver: SolverStats | None = None
    controller_name: str = ""
    cycle_name: str = ""
    wall_s: float = 0.0
    cached: bool = False
    error: str | None = None
    engine_backend: str = "scalar"

    @property
    def ok(self) -> bool:
        """Whether the cell computed successfully."""
        return self.error is None


# ---------------------------------------------------------------------- #
# the cache


class ResultCache:
    """Content-addressed on-disk store of :class:`CellPayload` pickles.

    One file per fingerprint under ``directory``; corrupt or unreadable
    entries count as misses and are overwritten.  Instances track their
    own hit/miss counters (reported per batch).
    """

    def __init__(self, directory: str | os.PathLike = DEFAULT_CACHE_DIR):
        self._dir = os.fspath(directory)
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> str:
        """Root directory of the store."""
        return self._dir

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, f"{key}.pkl")

    def get(self, key: str) -> CellPayload | None:
        """Look a payload up; ``None`` (and a miss) when absent/corrupt."""
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        if not isinstance(payload, CellPayload):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: CellPayload) -> None:
        """Store a payload (atomic rename so readers never see partials)."""
        os.makedirs(self._dir, exist_ok=True)
        tmp = self._path(key) + f".tmp{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, self._path(key))


# ---------------------------------------------------------------------- #
# the runner


def _execute_cell(scenario: Scenario) -> CellPayload:
    """Run one scenario and reduce it to a picklable payload.

    Module-level so worker processes can import it under any start method.
    """
    start = time.perf_counter()
    result = run_scenario(scenario)
    return CellPayload(
        controller_name=result.controller_name,
        cycle_name=result.cycle_name,
        metrics=result.metrics,
        solver=result.solver,
        wall_s=time.perf_counter() - start,
    )


def _guarded_cell(scenario: Scenario) -> tuple[CellPayload | None, str | None]:
    """Crash-isolation wrapper: exceptions become an error string."""
    try:
        return _execute_cell(scenario), None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class BatchResult:
    """Aggregated output of one :func:`run_batch` call.

    ``cells`` is index-aligned with the input scenarios.  The tidy-row
    accessors feed :mod:`repro.analysis` and the perf-trajectory JSON.
    """

    cells: tuple
    wall_s: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: How the cells actually executed: ``"serial"`` (requested),
    #: ``"process-pool"``, or ``"serial-fallback"`` (parallel requested but
    #: degraded because the host has a single CPU).  When the lockstep
    #: engine handled cells, the string is ``"lockstep"`` (every cell
    #: lockstep-assigned) or a ``"lockstep+<scalar mode>"`` composition
    #: (mixed grids, or lockstep groups that fell back to scalar cells).
    methodology: str = "serial"

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def ok(self) -> bool:
        """Whether every cell computed successfully."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> tuple:
        """The failed cells (empty on a clean sweep)."""
        return tuple(cell for cell in self.cells if not cell.ok)

    def metrics(self) -> list:
        """Index-aligned ``SummaryMetrics`` list (``None`` for failures)."""
        return [cell.metrics for cell in self.cells]

    def raise_on_failure(self) -> "BatchResult":
        """Raise ``RuntimeError`` listing failed cells, else return self."""
        if not self.ok:
            lines = [
                f"  cell {c.index} ({c.scenario.methodology}/{c.scenario.cycle}): "
                f"{c.error}"
                for c in self.failures
            ]
            raise RuntimeError(
                f"{len(self.failures)} of {len(self)} batch cells failed:\n"
                + "\n".join(lines)
            )
        return self

    def rows(self) -> list:
        """Tidy rows (one dict per cell): scenario knobs + metrics + stats.

        The flat format :mod:`repro.analysis.tables`/``figures`` and the
        ``BENCH_*.json`` trajectory files consume.
        """
        return [cell_row(cell) for cell in self.cells]

    def bench_payload(self) -> dict:
        """The ``BENCH_batch.json`` fragment describing this run."""
        return {
            "cells": len(self.cells),
            "failures": len(self.failures),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "methodology": self.methodology,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "rows": self.rows(),
        }


def cell_row(cell: BatchCell) -> dict:
    """One tidy row for ``cell``: scenario knobs + metrics + solver stats.

    Module-level so incremental consumers (the sweep service's progress
    callback) can build rows cell-by-cell as a batch completes, instead of
    waiting for the whole :class:`BatchResult`.
    """
    s = cell.scenario
    row = {
        "index": cell.index,
        "methodology": s.methodology,
        "cycle": s.cycle,
        "repeat": s.repeat,
        "ucap_farads": s.ucap_farads,
        "initial_temp_k": s.initial_temp_k,
        "rollout_backend": s.rollout_backend,
        "perturb_seed": s.perturb_seed,
        "controller": cell.controller_name,
        "wall_s": cell.wall_s,
        "cached": cell.cached,
        "engine_backend": cell.engine_backend,
        "error": cell.error,
    }
    if cell.metrics is not None:
        for f in dataclasses.fields(cell.metrics):
            row[f.name] = getattr(cell.metrics, f.name)
    if cell.solver is not None:
        row["solver_solves"] = cell.solver.solves
        row["solver_iterations"] = cell.solver.total_iterations
        # None (JSON null), never NaN: a controller that never replanned
        # leaves last_cost at its NaN sentinel, which json.dumps emits as
        # bare `NaN` - invalid JSON to strict consumers.
        row["solver_last_cost"] = cell.solver.last_cost_or_none
        # pre-schema-2 pickles lack the field
        row["solver_backend"] = getattr(cell.solver, "backend", "scalar")
        # winner attribution (schema 4+; getattr for old pickles):
        # which start seed won each replan race
        row["solver_wins_warm"] = getattr(cell.solver, "wins_warm", 0)
        row["solver_wins_neutral"] = getattr(cell.solver, "wins_neutral", 0)
        row["solver_wins_full_cool"] = getattr(
            cell.solver, "wins_full_cool", 0
        )
    return row


def _lockstep_assignment(scenarios: list, execution: str) -> set:
    """Indices of the cells the lockstep engine should compute.

    ``"scalar"`` assigns none; ``"lockstep"`` assigns every supported cell;
    ``"auto"`` assigns supported cells whose group (architecture, and for
    OTEM the full solver shape - see :func:`~repro.sim.engine_vec.
    lockstep_key`) has at least two members - a singleton group gains
    nothing from vectorization, so it stays on the scalar engine.  OTEM
    cells are supported when they run the vectorized rollout backend;
    scalar-backend MPC cells always stay scalar (routing them would
    silently switch solver backends).  The decision uses only the input
    grid, never the cache state, so the per-cell fingerprints are
    deterministic.
    """
    if execution == "scalar":
        return set()
    supported = [i for i, s in enumerate(scenarios) if lockstep_supported(s)]
    if execution == "lockstep":
        return set(supported)
    groups: dict = {}
    for i in supported:
        groups.setdefault(lockstep_key(scenarios[i]), []).append(i)
    return {i for idx in groups.values() if len(idx) >= 2 for i in idx}


def run_batch(
    scenarios: Iterable[Scenario] | Sequence[Scenario],
    workers: int = 0,
    cache: ResultCache | None = None,
    cache_dir: str | os.PathLike | None = None,
    store=None,
    timeout_s: float | None = None,
    on_cell: Callable[[BatchCell], None] | None = None,
    on_cell_done: Callable[[BatchCell], None] | None = None,
    cancel: Callable[[], bool] | None = None,
    execution: str = "auto",
) -> BatchResult:
    """Run a grid of scenarios, optionally in parallel and cached.

    Parameters
    ----------
    scenarios:
        The grid, in the order results should come back.
    workers:
        ``0`` or ``1`` runs serially in-process; ``n >= 2`` fans out over a
        ``ProcessPoolExecutor`` with ``n`` workers.  Parallel cells produce
        bitwise-identical ``SummaryMetrics`` to serial ones.  On a
        single-CPU host a parallel request auto-degrades to in-process
        serial execution (pool spawn overhead cannot pay off there - see
        the sub-1.0 "parallel_speedup" it produced in BENCH_batch.json);
        the degradation is visible as ``BatchResult.methodology ==
        "serial-fallback"``.  Workers only ever compute scalar-assigned
        cells; lockstep groups run in-process (they are one NumPy loop).
    cache / cache_dir:
        Pass a :class:`ResultCache` (or just a directory) to skip cells
        whose fingerprint is already stored and to store fresh results.
        ``None`` (default) disables caching.
    store:
        A :class:`repro.store.ExperimentStore` (or anything with the same
        ``get``/``put``/``hits``/``misses`` surface) used exactly like
        ``cache`` but durable and queryable: previously computed cells are
        skipped across processes, sessions, and service restarts.
        Mutually exclusive with ``cache``/``cache_dir``.
    timeout_s:
        Best-effort per-cell wall-clock budget (scalar pool mode only): a
        cell still pending that long after its turn comes up is marked
        failed with a timeout error and abandoned.
    on_cell / on_cell_done:
        Progress callback invoked with each finished :class:`BatchCell`
        in completion order (serial mode: submission order; lockstep
        groups report their cells when the group completes).
        ``on_cell_done`` is the canonical name; ``on_cell`` remains as a
        back-compat alias and at most one may be passed.
    cancel:
        Cooperative cancellation hook: a zero-argument callable polled
        before each pending cell (and each lockstep group) starts.  Once
        it returns True, every not-yet-computed cell is marked failed
        with a ``"cancelled: ..."`` error instead of being computed;
        already-finished cells and cache hits are unaffected.
    execution:
        Engine selection: ``"auto"`` (default) routes supported cells
        with at least one group-mate onto the lockstep struct-of-arrays
        engine - the four baselines grouped by architecture, and OTEM
        cells running the vectorized rollout backend grouped by solver
        shape (MPC ensembles replan in lockstep waves) - and everything
        else onto the scalar engine; ``"lockstep"`` forces every
        supported cell onto the lockstep engine; ``"scalar"`` forces the
        scalar engine for all cells (pre-lockstep behavior).  A lockstep
        group that fails re-routes its cells to the scalar path
        one-by-one, preserving crash isolation.

    Returns
    -------
    BatchResult
        Cells index-aligned with ``scenarios``.
    """
    scenarios = list(scenarios)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"unknown execution mode {execution!r}; choose from {EXECUTION_MODES}"
        )
    if on_cell is not None and on_cell_done is not None:
        raise ValueError("pass on_cell_done or its alias on_cell, not both")
    on_cell_done = on_cell_done if on_cell_done is not None else on_cell
    if store is not None and (cache is not None or cache_dir is not None):
        raise ValueError("pass store or cache/cache_dir, not both")
    scalar_methodology = "serial"
    if workers >= 2:
        if (os.cpu_count() or 1) <= 1:
            workers = 1
            scalar_methodology = "serial-fallback"
        else:
            scalar_methodology = "process-pool"
    if store is not None:
        cache = store
    elif cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    hits0 = cache.hits if cache else 0
    misses0 = cache.misses if cache else 0
    cancelled = cancel if cancel is not None else (lambda: False)

    lockstep_cells = _lockstep_assignment(scenarios, execution)

    def backend_of(index: int) -> str:
        return "lockstep" if index in lockstep_cells else "scalar"

    start = time.perf_counter()
    cells: list = [None] * len(scenarios)

    def finish(index: int, cell: BatchCell) -> None:
        cells[index] = cell
        if on_cell_done is not None:
            on_cell_done(cell)

    def from_payload(
        index: int, payload: CellPayload, cached: bool
    ) -> BatchCell:
        return BatchCell(
            index=index,
            scenario=scenarios[index],
            metrics=payload.metrics,
            solver=payload.solver,
            controller_name=payload.controller_name,
            cycle_name=payload.cycle_name,
            wall_s=payload.wall_s,
            cached=cached,
            engine_backend=getattr(payload, "engine_backend", "scalar"),
        )

    # serve cache hits first; collect the cells that actually need compute
    pending: list = []
    keys: dict = {}
    for i, scenario in enumerate(scenarios):
        if cache is not None:
            keys[i] = scenario_fingerprint(scenario, engine_backend=backend_of(i))
            payload = cache.get(keys[i])
            if payload is not None:
                finish(i, from_payload(i, payload, cached=True))
                continue
        pending.append(i)

    def complete(index: int, payload: CellPayload | None, error: str | None):
        if payload is None:
            finish(
                index,
                BatchCell(index=index, scenario=scenarios[index], error=error),
            )
            return
        if cache is not None:
            cache.put(keys[index], payload)
        finish(index, from_payload(index, payload, cached=False))

    lock_pending = [i for i in pending if i in lockstep_cells]
    scalar_pending = [i for i in pending if i not in lockstep_cells]

    # lockstep groups first (in-process, one NumPy loop per group); a group
    # that fails is logged and re-routes its cells to the scalar path
    # below, where each cell is crash-isolated individually
    if lock_pending:
        groups: dict = {}
        for i in lock_pending:
            groups.setdefault(lockstep_key(scenarios[i]), []).append(i)
        for key, indices in groups.items():
            if cancelled():
                for i in indices:
                    complete(i, None, _CANCELLED_ERROR)
                continue
            t0 = time.perf_counter()
            try:
                results = run_lockstep([scenarios[i] for i in indices])
            except Exception as exc:  # noqa: BLE001 - fall back, isolate per cell
                # the full key (pack, coolant, solver shape) rides on the
                # record; the message names the methodology and the cells
                _log.warning(
                    "lockstep group failed (%s, cells %s): %r; rerunning "
                    "its cells on the scalar engine",
                    key[0],
                    indices,
                    exc,
                    exc_info=exc,
                    extra={"group_key": key},
                )
                for i in indices:
                    lockstep_cells.discard(i)
                    if cache is not None:
                        keys[i] = scenario_fingerprint(
                            scenarios[i], engine_backend="scalar"
                        )
                        payload = cache.get(keys[i])
                        if payload is not None:
                            finish(i, from_payload(i, payload, cached=True))
                            continue
                    scalar_pending.append(i)
                continue
            per_cell_s = (time.perf_counter() - t0) / len(indices)
            for i, result in zip(indices, results):
                complete(
                    i,
                    CellPayload(
                        controller_name=result.controller_name,
                        cycle_name=result.cycle_name,
                        metrics=result.metrics,
                        solver=result.solver,
                        wall_s=per_cell_s,
                        engine_backend="lockstep",
                    ),
                    None,
                )
        scalar_pending.sort()

    if workers <= 1:
        for i in scalar_pending:
            if cancelled():
                complete(i, None, _CANCELLED_ERROR)
                continue
            payload, error = _guarded_cell(scenarios[i])
            complete(i, payload, error)
    elif scalar_pending:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                i: pool.submit(_guarded_cell, scenarios[i])
                for i in scalar_pending
            }
            for i in scalar_pending:
                if cancelled():
                    futures[i].cancel()
                    complete(i, None, _CANCELLED_ERROR)
                    continue
                try:
                    payload, error = futures[i].result(timeout=timeout_s)
                except concurrent.futures.TimeoutError:
                    futures[i].cancel()
                    payload, error = None, f"timeout: exceeded {timeout_s:g} s budget"
                except concurrent.futures.process.BrokenProcessPool as exc:
                    payload, error = None, f"worker died: {exc}"
                complete(i, payload, error)

    if lockstep_cells:
        if len(lockstep_cells) == len(scenarios):
            methodology = "lockstep"
        else:
            methodology = f"lockstep+{scalar_methodology}"
    else:
        methodology = scalar_methodology

    return BatchResult(
        cells=tuple(cells),
        wall_s=time.perf_counter() - start,
        workers=workers,
        cache_hits=(cache.hits - hits0) if cache else 0,
        cache_misses=(cache.misses - misses0) if cache else 0,
        methodology=methodology,
    )


def scenario_grid(base: Scenario, **axes: Sequence) -> list:
    """Cross-product grid of scenarios around ``base``.

    Each keyword names a :class:`Scenario` field and supplies the values
    to sweep; the cross product is enumerated with the *last* axis varying
    fastest (like nested loops in keyword order).

    >>> grid = scenario_grid(
    ...     Scenario(cycle="nycc"),
    ...     methodology=("parallel", "otem"),
    ...     ucap_farads=(5_000.0, 25_000.0),
    ... )
    >>> [(s.methodology, s.ucap_farads) for s in grid]  # doctest: +SKIP
    """
    grid = [base]
    for name, values in axes.items():
        if not list(values):
            raise ValueError(f"axis {name!r} has no values")
        grid = [
            dataclasses.replace(s, **{name: value})
            for s in grid
            for value in values
        ]
    return grid
