"""The four benchmark workloads: inputs from a seed, timed passes, checks.

Each workload builds its :class:`~repro.sim.scenario.Scenario` and
:class:`~repro.service.spec.SweepSpec` inputs from the run's seed, and
drives the program only through ``run_scenario``, ``run_batch`` and
``SweepServer``/``SweepClient``.  Program entry points are looked up as
module attributes at call time, so the traced run's wrappers apply.

A workload answers to these calls:

* ``setup()`` - work that precedes the first pass (counted in ``setup_s``);
* ``run_pass(i)`` - one timed pass; returns a :class:`Pass`;
* ``verify(first)`` - checks run outside the timed window on a pass;
* ``headline(passes, per_ref)`` - the gated figures of a run;
* ``counters()`` - program-side counters read around the traced passes;
* ``teardown()`` - stops servers and removes the scratch store.

Every timed operation runs inside a :meth:`Clock.unit`, which runs a
reference kernel between units, so each sample can be read in seconds or
in reference-kernel units (see ``README.md``).  The warm sweeps are read
against :class:`StoreKernel`, every other unit against :func:`reference_s`.

``size="smoke"`` shrinks the grids for the benchmark's smoke test.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sqlite3
import statistics
import tempfile
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.drivecycle import library
from repro.service import client as client_mod
from repro.service import server as server_mod
from repro.service.spec import SweepSpec
from repro.sim import batch
from repro.sim import scenario as scenario_mod
from repro.sim.scenario import METHODOLOGIES, Scenario

BASELINES = tuple(m for m in METHODOLOGIES if m != "otem")

#: Solver shape of the OTEM ensemble (the ``bench_mpc_ensemble`` shape).
OTEM_ENSEMBLE_KNOBS = dict(
    methodology="otem",
    cycle="nycc",
    rollout_backend="vectorized",
    mpc_horizon=6,
    mpc_step_s=30.0,
    mpc_max_evals=40,
)

#: Status poll period of the sweep client; ``SweepClient.wait``'s default
#: 0.2 s would make the warm-sweep latency measure the poll interval.
POLL_S = 0.01

#: Relative tolerance of the lockstep-vs-scalar metric checks (the one
#: ``bench_engine.py`` and ``bench_mpc_ensemble.py`` assert).
QLOSS_RTOL = 1e-9

#: Iterations of one reference-kernel sample (a few ms of CPU time).
REFERENCE_ITERATIONS = 1_000

#: Kernel samples taken between two timed units, and the period of the
#: sampling thread that runs during a unit.
EDGE_SAMPLES = 5
SAMPLE_PERIOD_S = 0.2

#: Rounds of one store-kernel sample (a few ms, much of it disk waits).
STORE_KERNEL_ROUNDS = 3


def reference_s() -> float:
    """CPU time of a fixed kernel that stands in for the host's speed.

    Small-array NumPy operations and Python float arithmetic, the mix the
    program's step loops are made of.  The kernel is part of the benchmark,
    so a change to the program cannot move it; a slower or busier host
    slows it in step with the program.  Thread CPU time, so waiting for
    the interpreter lock does not count.
    """
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    start = time.thread_time()
    for i in range(REFERENCE_ITERATIONS):
        x = np.clip(x * 1.0001 + 0.5, 0.0, 2.0) - 0.5
        acc = acc * 0.999 + float(x[i % 64])
    return time.thread_time() - start


class StoreKernel:
    """Wall time of a fixed store-like read, the warm sweeps' reference.

    One round does what ``ExperimentStore.get`` does per hit: select a row
    of an SQLite index on a fresh connection, load a small compressed
    ``.npz`` holding a JSON document, and commit an ``UPDATE`` on another
    fresh connection.  The kernel's own index and blob sit next to the
    program's store, on the same disk.  Wall time, since the commits wait
    on the disk: a warm sweep follows the disk's sync latency and the
    speed of SQLite, zlib and file reads, which the NumPy kernel of
    :func:`reference_s` does not track.
    """

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.index = str(directory / "index.sqlite")
        self.blob = str(directory / "blob.npz")
        with closing(sqlite3.connect(self.index)) as con, con:
            con.execute("CREATE TABLE cells (key INTEGER PRIMARY KEY, used REAL)")
            con.execute("INSERT INTO cells VALUES (1, 0.0)")
        doc = {f"metric_{i}": i / 7.0 for i in range(24)}
        np.savez_compressed(self.blob, payload_json=np.array(json.dumps(doc)))

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(STORE_KERNEL_ROUNDS):
            with closing(sqlite3.connect(self.index)) as con, con:
                con.execute("SELECT key FROM cells WHERE key = 1").fetchone()
            with np.load(self.blob) as blob:
                json.loads(str(blob["payload_json"]))
            with closing(sqlite3.connect(self.index)) as con, con:
                con.execute("UPDATE cells SET used = ? WHERE key = 1", (time.time(),))
        return time.perf_counter() - start


@dataclass
class Sample:
    """One timed operation and the reference-kernel time around it."""

    seconds: float
    ref_s: float = math.nan
    kernel: str = "cpu"


class Clock:
    """Samples a reference kernel around and during timed units of work.

    Between two units the kernel runs :data:`EDGE_SAMPLES` times; during a
    unit a thread runs it every ``period_s`` (never, if ``None``).  A
    unit's ``ref_s`` averages the samples from the start of the kernel
    runs before it to the end of those after it, so a short unit is read
    against the host's speed next to it and a long one against its speed
    throughout.  With the thread, the average is the mean: a unit's wall
    time adds up the host's slowness over the unit, and the host switches
    between a fast and a slow state within a long unit, so a median picks
    one state.  Without it, the median, so one slow commit among the edge
    samples of :class:`StoreKernel` does not move the unit's reference.
    """

    def __init__(self, kernel=reference_s, period_s=SAMPLE_PERIOD_S, name="cpu"):
        self.kernel = kernel
        self.period_s = period_s
        self.average = statistics.median if period_s is None else statistics.fmean
        self.name = name
        self.samples: list = []  # (time taken, kernel seconds)
        self._edge_start: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.samples.append((time.perf_counter(), self.kernel()))

    def _sample_until_closed(self) -> None:
        while not self._stop.wait(self.period_s):
            self.samples.append((time.perf_counter(), self.kernel()))

    @contextmanager
    def unit(self, timings: dict):
        """Yield ``record(name, seconds)``; samples get the unit's ``ref_s``."""
        if self._edge_start is None:
            if self.period_s is not None:
                self._thread = threading.Thread(
                    target=self._sample_until_closed, name="reference", daemon=True
                )
                self._thread.start()
            self._edge_start = time.perf_counter()
            self._edge()
        recorded = []

        def record(name: str, seconds: float) -> None:
            sample = Sample(seconds, kernel=self.name)
            timings.setdefault(name, []).append(sample)
            recorded.append(sample)

        yield record
        edge_start = time.perf_counter()
        self._edge()
        ref = self.average(
            [s for t, s in list(self.samples) if t >= self._edge_start]
        )
        for sample in recorded:
            sample.ref_s = ref
        self._edge_start = edge_start

    def close(self) -> None:
        """Stop the sampling thread and wait for it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()


@dataclass
class Pass:
    """One timed pass: wall time, timed samples, operation counts."""

    wall_s: float = 0.0
    timings: dict = field(default_factory=dict)  # name -> list of Sample
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    solver_stats: list = field(default_factory=list)
    polls: list = field(default_factory=list)
    keep: object = None  # what verify() needs


def samples(passes: list, name: str, per_ref: bool) -> list:
    """Samples ``name`` of every pass, in seconds or in reference units."""
    return [
        s.seconds / s.ref_s if per_ref else s.seconds
        for p in passes
        for s in p.timings.get(name, [])
    ]


def reference_ms(passes: list, kernel: str = "cpu") -> float:
    """Median time of ``kernel`` over the samples of ``passes`` (0 if none)."""
    refs = [
        s.ref_s
        for p in passes
        for values in p.timings.values()
        for s in values
        if s.kernel == kernel
    ]
    return 1e3 * statistics.median(refs) if refs else 0.0


def _seeds(rng: np.random.Generator, n: int) -> list:
    return [int(s) for s in rng.choice(1_000_000, size=n, replace=False)]


def _nan_fields(metrics) -> list:
    return [
        f.name
        for f in dataclasses.fields(metrics)
        if isinstance(getattr(metrics, f.name), float)
        and math.isnan(getattr(metrics, f.name))
    ]


def _check_cells(result, problems: list) -> None:
    for cell in result.cells:
        if not cell.ok:
            problems.append(f"cell {cell.index} failed: {cell.error}")
        elif _nan_fields(cell.metrics):
            problems.append(f"cell {cell.index} NaN in {_nan_fields(cell.metrics)}")


def _check_scalar_columns(result, indices, problems: list, same_solver: bool):
    """Sampled lockstep columns against the scalar engine (untimed)."""
    for i in indices:
        cell = result.cells[i]
        ref = scenario_mod.run_scenario(cell.scenario)
        q, q_ref = cell.metrics.qloss_percent, ref.metrics.qloss_percent
        if abs(q - q_ref) > QLOSS_RTOL * abs(q_ref):
            problems.append(f"cell {i}: qloss {q!r} vs scalar {q_ref!r}")
        if same_solver and cell.solver != ref.solver:
            problems.append(f"cell {i}: solver stats differ from scalar run")
        if not same_solver and cell.metrics.peak_temp_k != ref.metrics.peak_temp_k:
            problems.append(f"cell {i}: peak temperature differs from scalar run")


class _Workload:
    """Defaults shared by every workload."""

    def __init__(self):
        self.clock = Clock()

    def setup(self) -> None:
        pass

    def verify(self, first: Pass) -> list:
        return []

    def counters(self) -> dict:
        return {"store.hits": 0, "store.misses": 0, "store.put.bytes": 0}

    def teardown(self) -> None:
        self.clock.close()


class Compare(_Workload):
    """The ``repro compare`` path: five methodologies on one US06 route."""

    name = "compare"
    cycle = "us06"

    def __init__(self, seed: int, size: str):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.routes = [
            Scenario(cycle=self.cycle, perturb_seed=s) for s in _seeds(rng, 8)
        ]

    def run_pass(self, i: int) -> Pass:
        route = self.routes[i % len(self.routes)]
        out = Pass()
        results = {}
        start = time.perf_counter()
        for methodology in METHODOLOGIES:
            key = "otem_route_s" if methodology == "otem" else "baseline_route_s"
            with self.clock.unit(out.timings) as record:
                t0 = time.perf_counter()
                results[methodology] = scenario_mod.run_scenario(
                    route.with_methodology(methodology)
                )
                record(key, time.perf_counter() - t0)
        out.wall_s = time.perf_counter() - start
        out.attempted = len(results)
        out.solver_stats = [results["otem"].solver]
        for methodology, result in results.items():
            if _nan_fields(result.metrics):
                out.problems.append(f"{methodology}: NaN metrics")
        # EXPERIMENTS.md (Fig. 8, MPC-vs-heuristic): OTEM ages the battery
        # least of all methodologies on US06
        otem_q = results["otem"].metrics.qloss_percent
        for methodology in BASELINES:
            q = results[methodology].metrics.qloss_percent
            if not otem_q < q:
                out.problems.append(
                    f"route {route.perturb_seed}: OTEM qloss {otem_q:.6f} not "
                    f"below {methodology} {q:.6f}"
                )
        return out

    @staticmethod
    def headline(passes: list, per_ref: bool) -> dict:
        base = [
            statistics.fmean(samples([p], "baseline_route_s", per_ref))
            for p in passes
        ]
        return {
            "heavy": statistics.median(samples(passes, "otem_route_s", per_ref)),
            "light": statistics.median(base),
            "report": {"otem_route_s": "heavy", "baseline_route_s": "light"},
        }


class _Ensemble(_Workload):
    """One ``run_batch`` (execution ``auto``) over a seed-perturbed grid."""

    def __init__(self, scenarios: list, sample: list, same_solver: bool):
        super().__init__()
        self.scenarios = scenarios
        self.sample = sample
        self.same_solver = same_solver

    def run_pass(self, i: int) -> Pass:
        out = Pass()
        with self.clock.unit(out.timings) as record:
            start = time.perf_counter()
            result = batch.run_batch(self.scenarios, workers=0, execution="auto")
            out.wall_s = time.perf_counter() - start
            record("ensemble_s", out.wall_s)
        out.attempted = len(result.cells)
        out.failed = len(result.failures)
        out.solver_stats = [c.solver for c in result.cells if c.solver is not None]
        out.keep = result
        _check_cells(result, out.problems)
        return out

    def verify(self, first: Pass) -> list:
        problems: list = []
        _check_scalar_columns(first.keep, self.sample, problems, self.same_solver)
        return problems

    def headline(self, passes: list, per_ref: bool) -> dict:
        median = statistics.median(samples(passes, "ensemble_s", per_ref))
        return {
            "heavy": median,
            "light": median / len(self.scenarios),
            "report": {"ensemble_s": "heavy"},
        }


class EnsembleBaselines(_Ensemble):
    """Four non-MPC methodologies x perturbation seeds on NYCC."""

    name = "ensemble_baselines"
    cycle = "nycc"

    def __init__(self, seed: int, size: str):
        rng = np.random.default_rng(seed)
        seeds = _seeds(rng, 2 if size == "smoke" else 16)
        grid = batch.scenario_grid(
            Scenario(cycle=self.cycle), methodology=BASELINES, perturb_seed=seeds
        )
        # one sampled column per methodology
        sample = [BASELINES.index(m) * len(seeds) for m in BASELINES]
        super().__init__(grid, sample, same_solver=False)


class EnsembleOTEM(_Ensemble):
    """32 OTEM scenarios, vectorized rollout, lockstep MPC waves, on NYCC."""

    name = "ensemble_otem"
    cycle = "nycc"

    def __init__(self, seed: int, size: str):
        rng = np.random.default_rng(seed)
        seeds = _seeds(rng, 2 if size == "smoke" else 32)
        grid = [Scenario(**OTEM_ENSEMBLE_KNOBS, perturb_seed=s) for s in seeds]
        super().__init__(grid, [0, len(grid) - 1], same_solver=True)


class _Requests:
    """A closed-loop client that counts requests and failures."""

    def __init__(self, client, out: Pass):
        self.client = client
        self.out = out

    def __call__(self, fn, *args, **kwargs):
        self.out.attempted += 1
        try:
            return fn(*args, **kwargs)
        except client_mod.ServiceError as exc:
            self.out.failed += 1
            self.out.problems.append(f"HTTP {exc}")
            return None

    def sweep(self, spec: dict):
        """Submit ``spec`` and wait until it ends; returns its final record."""
        accepted = self(self.client.submit, spec)
        if accepted is None:
            return None
        polls = 0

        def count(record):
            nonlocal polls
            polls += 1

        record = self(
            self.client.wait,
            accepted["sweep_id"],
            timeout_s=120.0,
            poll_s=POLL_S,
            on_progress=count,
        )
        self.out.attempted += polls - 1  # wait() made `polls` status requests
        self.out.polls.append(polls)
        return record


def _canonical(rows) -> bytes:
    return json.dumps(rows, sort_keys=True).encode()


class SweepService(_Workload):
    """A sweep server on an empty store: one cold sweep, then warm repeats."""

    name = "sweep_service"
    cycle = "nycc"

    def __init__(self, seed: int, size: str, scratch: Path):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.members = 2 if size == "smoke" else 16
        self.warm_repeats = 2 if size == "smoke" else 4
        self.scratch = scratch
        self.used: set = set()
        self.server = None
        self.store_clock = None

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.scratch))
        self.store_dir = self.run_dir / "store"
        # warm sweeps are read against a store-like kernel next to the
        # store, sampled only between units: during one it would contend
        # for the same disk
        self.store_clock = Clock(
            StoreKernel(self.run_dir / "kernel"), period_s=None, name="store"
        )
        self.server = server_mod.SweepServer(
            self.store_dir, port=0, worker_threads=1, quiet=True
        ).start()
        self.client = client_mod.SweepClient(self.server.url)
        self.client.healthz()

    def _cold_spec(self) -> dict:
        """A spec whose cells no earlier pass stored (fresh seeds)."""
        seeds = [s for s in _seeds(self.rng, 2 * self.members) if s not in self.used]
        seeds = seeds[: self.members]
        self.used.update(seeds)
        spec = SweepSpec(
            base=Scenario(cycle=self.cycle),
            axes={"methodology": list(BASELINES), "perturb_seed": seeds},
            workers=0,
            execution="auto",
        )
        return spec.to_dict()

    def _timed_sweep(self, call: _Requests, spec: dict, name: str, record):
        """One sweep, submit to done, then its rows; returns (record, rows)."""
        t0 = time.perf_counter()
        status = call.sweep(spec)
        if status is None:
            return None, None
        record(name, time.perf_counter() - t0)
        t0 = time.perf_counter()
        rows = call(self.client.rows, status["sweep_id"])
        record("rows_get_s", time.perf_counter() - t0)
        if status["status"] != "done":
            call.out.problems.append(f"sweep {status['sweep_id']}: {status['status']}")
        return status, rows

    def run_pass(self, i: int) -> Pass:
        spec = self._cold_spec()
        out = Pass()
        call = _Requests(self.client, out)
        start = time.perf_counter()
        with self.clock.unit(out.timings) as record:
            _, cold = self._timed_sweep(call, spec, "cold_sweep_s", record)
        if cold is not None:
            self._check_rows(cold, out.problems)
            reference = _canonical(cold["rows"])
            for _ in range(self.warm_repeats):
                with self.store_clock.unit(out.timings) as record:
                    status, warm = self._timed_sweep(call, spec, "warm_sweep_s", record)
                if warm is not None and _canonical(warm["rows"]) != reference:
                    out.problems.append(
                        f"warm sweep {status['sweep_id']}: rows differ from cold"
                    )
        out.wall_s = time.perf_counter() - start
        return out

    def _check_rows(self, payload, problems: list) -> None:
        rows = payload["rows"]
        if len(rows) != len(BASELINES) * self.members:
            problems.append(f"cold sweep returned {len(rows)} rows")
        for row in rows:
            if row["error"] is not None:
                problems.append(f"cold row {row['index']} failed: {row['error']}")
            elif any(isinstance(v, float) and math.isnan(v) for v in row.values()):
                problems.append(f"cold row {row['index']} has NaN")

    def counters(self) -> dict:
        store = self.server.store
        return {
            "store.hits": store.hits,
            "store.misses": store.misses,
            "store.put.bytes": store.total_bytes(),
        }

    def teardown(self) -> None:
        self.clock.close()
        if self.store_clock is not None:
            self.store_clock.close()
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        shutil.rmtree(self.run_dir, ignore_errors=True)

    @staticmethod
    def headline(passes: list, per_ref: bool) -> dict:
        warm = samples(passes, "warm_sweep_s", per_ref)
        rows = samples(passes, "rows_get_s", per_ref)
        tail_pct, tail_value = tail(warm)
        return {
            "heavy": statistics.median(samples(passes, "cold_sweep_s", per_ref)),
            "light": statistics.median(warm),
            "report": {"cold_sweep_s": "heavy", "warm_sweep_p50_ms": "light"},
            "service": {
                "warm_sweep_tail_s": tail_value,
                "warm_sweep_tail_pct": tail_pct,
                "warm_sweep_samples": len(warm),
                "rows_get_p50_s": statistics.median(rows),
                "polls_per_sweep": statistics.fmean(n for p in passes for n in p.polls),
            },
        }


def tail(values: list) -> tuple:
    """(percentile, value): the highest percentile with >= 10 samples above.

    With fewer than 11 samples there is no such percentile; the maximum is
    reported as the 100th.
    """
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1]
    rank = n - 11  # 10 samples lie beyond index n - 11
    return math.floor(100.0 * (rank + 1) / n), values[rank]


def make(name: str, seed: int, size: str, scratch: Path):
    """Instantiate workload ``name`` with its seed-generated inputs."""
    if name == "sweep_service":
        return SweepService(seed, size, scratch)
    workload = {
        "compare": Compare,
        "ensemble_baselines": EnsembleBaselines,
        "ensemble_otem": EnsembleOTEM,
    }[name]
    return workload(seed, size)


def warm_cycle(name: str) -> None:
    """Build the workload's base drive cycle into the library cache."""
    library.get_cycle(name)
