"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
``src/``.  The untraced run (``--trace 0``) prints the end-to-end metrics;
the traced run (``--trace 1``) measures half its time untraced and half
with the span wrappers of ``tracing.py`` installed, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it name every measured figure with its unit, and a host and
provenance block.  The exit code is 0 only when every output check
passed.  Results (and the traced run's spans) are also written under
``.perfbench_out/``.

See ``perfbench/README.md`` for the workloads, the metrics and the map
from each layer to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("compare", "ensemble_baselines", "ensemble_otem", "sweep_service")

#: Extra set-ups measured in fresh interpreters; setup_s is the median of
#: these and the run's own set-up.
SETUP_PROBES = 2

SUFFIX_UNITS = (
    ("_ref", "ref"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_s", "s"),
    ("_frac", "frac"),
    ("_pct", "%"),
    (".bytes", "B"),
)


def unit_of(name: str) -> str:
    """The unit of a metric, read from its name's suffix (else a count)."""
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: minimal grids and no set-up probes (the smoke test)",
    )
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, tear down and print the set-up time only",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(args):
    """Import the program, warm its caches and build the workload."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.core import lbfgsb_lockstep

    lbfgsb_lockstep.lockstep_available()
    workload = workloads.make(
        args.workload, args.seed, args.size, OUT_DIR / "scratch"
    )
    workloads.warm_cycle(workload.cycle)
    workload.setup()
    return workload


def probe_setup(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, min_passes: int) -> list:
    """At least ``min_passes`` passes, then more while they fit in ``seconds``.

    A next pass starts only if it would end in time, judged by the
    duration of the pass before it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(len(passes)))
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - t0) > seconds:
            return passes


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_block(args) -> dict:
    """Host and provenance of a result."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def traced_metrics(workload, untraced, traced, tracer, counters: dict) -> dict:
    """Per-layer metrics of the traced run."""
    import tracing
    import workloads
    from repro.core import lbfgsb_lockstep

    metrics = tracing.layer_metrics(
        tracer.spans,
        sum(p.wall_s for p in traced),
        [s for p in traced for s in p.solver_stats],
    )
    metrics.update(counters)
    metrics["core.lbfgsb_lockstep.available"] = int(
        lbfgsb_lockstep.lockstep_available()
    )
    service = workload.headline(untraced, per_ref=False).get("service", {})
    metrics["service.polls_per_sweep"] = service.get("polls_per_sweep", 0)
    metrics["service.rows_get_p50_ms"] = 1e3 * service.get("rows_get_p50_s", 0)
    metrics["service.warm_sweep_tail_ms"] = 1e3 * service.get("warm_sweep_tail_s", 0)
    metrics["service.warm_sweep_tail_pct"] = service.get("warm_sweep_tail_pct", 0)
    metrics["service.warm_sweep_samples"] = service.get("warm_sweep_samples", 0)
    metrics["host.ref_ms"] = workloads.reference_ms(untraced)
    metrics["host.store_ref_ms"] = workloads.reference_ms(untraced, "store")
    metrics["trace.overhead_frac"] = (
        workload.headline(traced, per_ref=True)["heavy"]
        / workload.headline(untraced, per_ref=True)["heavy"]
        - 1.0
    )
    return metrics


def report_lines(workload, passes: list, attempted: int, failed: int) -> list:
    """The measured figures in seconds (or ms), by their own names."""
    import workloads

    raw = workload.headline(passes, per_ref=False)
    lines = []
    for name, key in raw["report"].items():
        scale, unit = (1e3, "ms") if name.endswith("_ms") else (1.0, "s")
        lines.append((name, scale * raw[key], unit))
    service = raw.get("service")
    if service:
        tail = (
            f"warm_sweep_tail_ms(p{service['warm_sweep_tail_pct']:g},"
            f"n={service['warm_sweep_samples']})"
        )
        lines.append((tail, 1e3 * service["warm_sweep_tail_s"], "ms"))
        lines.append(("rows_get_p50_ms", 1e3 * service["rows_get_p50_s"], "ms"))
        lines.append(("polls_per_sweep", service["polls_per_sweep"], "count"))
    lines.append(("reference_kernel_ms", workloads.reference_ms(passes), "ms"))
    store_ms = workloads.reference_ms(passes, "store")
    if store_ms:
        lines.append(("store_kernel_ms", store_ms, "ms"))
    lines.append(("error_frac", failed / attempted, "frac"))
    return [f"{name:<44} {value:.6g} {unit}" for name, value, unit in lines]


def run(args, setup_samples: list, workload) -> tuple:
    """Measure, check, and return (result object, report lines)."""
    import tracing

    if args.trace:
        untraced = measure(workload, args.seconds / 2, min_passes=1)
        tracer = tracing.Tracer()
        before = workload.counters()
        tracing.install(tracer)
        try:
            traced = measure(workload, args.seconds / 2, min_passes=1)
        finally:
            tracer.uninstall()
        after = workload.counters()
        counters = {k: after[k] - before[k] for k in after}
        passes = untraced + traced
    else:
        # two passes at least, so every gated figure is a median of two or more
        untraced = passes = measure(workload, args.seconds, min_passes=2)

    problems = [msg for p in passes for msg in p.problems]
    problems += workload.verify(untraced[0])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        values = traced_metrics(workload, untraced, traced, tracer, counters)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    else:
        gated = workload.headline(untraced, per_ref=True)
        values = {
            "setup_s": statistics.median(setup_samples),
            "heavy_ref": gated["heavy"],
            "light_ref": gated["light"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()
        },
    }
    lines = [f"passes: {len(untraced)} untraced" + (
        f", {len(passes) - len(untraced)} traced" if args.trace else ""
    )]
    lines += report_lines(workload, untraced, attempted, failed)
    lines += [
        f"{name:<44} {m['value']:.6g} {m['unit']}"
        for name, m in result["metrics"].items()
        if not args.trace
    ]
    lines += [f"CHECK FAILED: {msg}" for msg in problems]
    return result, lines


def main(argv=None, t0=None) -> int:
    t0 = time.perf_counter() if t0 is None else t0
    args = parse_args(argv)
    # One BLAS thread: OpenBLAS's worker threads otherwise spin on the
    # second core of a small host, adding CPU contention and run-to-run
    # spread for a speed-up of a few percent.  Set before NumPy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # One core: the program's threads and the reference-kernel sampler
    # (workloads.Clock) then share the core whose speed the sampler measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        workload = setup(args)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    setup_samples = [time.perf_counter() - t0]
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        if args.size == "full" and not args.trace:  # setup_s is untraced only
            setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
        result, lines = run(args, setup_samples, workload)
    finally:
        workload.teardown()

    host = host_block(args)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, host=host, report=lines)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(t0=T0))
