"""The batch subsystem itself: serial vs parallel, cache behavior.

The fast-bench CI smoke.  Runs the ucap-size sweep (the Table I grid at
smoke scale) three ways - serially, fanned out over worker processes, and
again against a warm cache - asserts the three agree exactly, and writes
the repo's perf-trajectory artifact ``BENCH_batch.json`` with the
serial/parallel wall-clocks, cache hit/miss counts, and per-scenario MPC
solve statistics.

Parallel wall-clock beats serial only when the runner has >= 2 cores; the
assertion here is therefore on *correctness* (bitwise-identical metrics),
while the speedup is recorded for the trajectory and checked by CI on its
2-core runners.
"""

from __future__ import annotations

import os

from benchmarks.conftest import BATCH_WORKERS, run_once
from repro.sim.batch import ResultCache, run_batch, scenario_grid
from repro.sim.scenario import Scenario

#: Smoke-scale ucap-size sweep: both ends of the paper's Table I range,
#: all three Table I methodologies, on the short NYCC route with a reduced
#: solver budget so the whole bench stays within a CI smoke job.
SWEEP = scenario_grid(
    Scenario(cycle="nycc", repeat=1, mpc_max_evals=60),
    ucap_farads=(5_000.0, 25_000.0),
    methodology=("parallel", "dual", "otem"),
)

#: Every cell on the scalar engine: this bench measures the process-pool
#: fan-out, and under ``execution="auto"`` each methodology's pair of
#: cells would form an in-process lockstep group instead, leaving nothing
#: to fan out (bench_engine.py and bench_mpc_ensemble.py measure lockstep).
ENGINE = "scalar"


def test_batch_parallel_matches_serial_and_records_trajectory(benchmark):
    serial = run_batch(SWEEP, workers=0, execution=ENGINE)
    assert serial.ok

    parallel = run_once(
        benchmark, run_batch, SWEEP, workers=BATCH_WORKERS, execution=ENGINE
    )
    assert parallel.ok

    # parallel execution must not change a single bit of the results
    assert [c.metrics for c in parallel.cells] == [c.metrics for c in serial.cells]

    # the shared on-disk cache: the first pass may hit (CI restores
    # .repro_cache between runs - that is the point), the second pass must
    # serve every cell without recomputing
    cache = ResultCache()
    warmup = run_batch(SWEEP, workers=0, cache=cache, execution=ENGINE)
    cached = run_batch(SWEEP, workers=0, cache=cache, execution=ENGINE)
    assert warmup.cache_hits + warmup.cache_misses == len(SWEEP)
    assert cached.cache_hits == len(SWEEP) and cached.cache_misses == 0
    assert [c.metrics for c in cached.cells] == [c.metrics for c in serial.cells]

    # the OTEM cells carry MPC solve statistics, the baselines do not
    solver_rows = [c for c in serial.cells if c.scenario.methodology == "otem"]
    assert solver_rows and all(c.solver.solves > 0 for c in solver_rows)
    assert all(
        c.solver is None for c in serial.cells if c.scenario.methodology != "otem"
    )

    from repro.utils.perf import record_bench

    speedup = serial.wall_s / parallel.wall_s if parallel.wall_s else float("nan")
    path = record_bench(
        "batch",
        {
            "sweep": "ucap_size",
            "cells": len(SWEEP),
            "cpu_count": os.cpu_count(),
            "workers": BATCH_WORKERS,
            "serial_wall_s": serial.wall_s,
            "parallel_wall_s": parallel.wall_s,
            "parallel_speedup": speedup,
            # "process-pool", or "serial-fallback" when the host's single
            # CPU makes the fan-out degrade to in-process execution
            "methodology": parallel.methodology,
            "cache": {
                "first_pass_hits": warmup.cache_hits,
                "first_pass_misses": warmup.cache_misses,
                "warm_hits": cached.cache_hits,
                "warm_wall_s": cached.wall_s,
            },
            "rows": serial.rows(),
        },
    )

    print()
    print(
        f"batch sweep ({len(SWEEP)} cells): serial {serial.wall_s:.2f} s, "
        f"parallel x{BATCH_WORKERS} {parallel.wall_s:.2f} s "
        f"({parallel.methodology}, speedup {speedup:.2f}x on "
        f"{os.cpu_count()} core(s)), warm cache {cached.wall_s:.2f} s -> {path}"
    )

    # on a multi-core runner the fan-out must actually pay off
    if (os.cpu_count() or 1) >= 2 and os.environ.get("REPRO_REQUIRE_SPEEDUP"):
        assert parallel.wall_s < serial.wall_s
