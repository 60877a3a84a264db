"""wpcn-sched benchmark: one workload, one caller, one thread, a closed loop.

    python3 perfbench/run.py --workload oracle-stm --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced runs of one fixed unit of
work and prints the per-layer metrics. Every output is checked; any failed
check ends the run with exit code 1 and no result. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 9
PROBE_SAMPLES = 3  # kernel samples after each set-up probe
WORKLOAD_NAMES = ("oracle-stm", "heuristic-sweep", "fixed-order-lp")


def import_package() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy of the package."""
    package = SRC / "wpcn_sched"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import wpcn_sched
    if Path(wpcn_sched.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported wpcn_sched from {wpcn_sched.__file__}")


def probe_setup(hostspeed, workload: str, seed: int) -> tuple[float, float]:
    """(raw, scaled) set-up time of a fresh process: import, spec parsing, input generation,
    warm-up. The process scales it by kernel samples it takes right after, on its own CPU."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120).stdout
    raw, kernel_s = map(float, out.split()[-2:])
    return raw, raw * hostspeed.NOMINAL_S / kernel_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workloads, hostspeed, wl, args) -> tuple[dict, int, int]:
    """End-to-end metrics: untraced units until ``--seconds`` have passed.

    Times are scaled to the nominal host of ``hostspeed``; the raw ones are
    printed as text lines.
    """
    probes = [probe_setup(hostspeed, args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl.warm_up()
    latencies, raw_latencies = array("d"), array("d")
    busy = raw_busy = 0.0
    attempted = failed = 0
    ratios = []
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while True:
        unit = wl.run(rep, host=hostspeed.HostSpeed())
        latencies.extend(unit.latencies_ms)
        raw_latencies.extend(unit.raw_latencies_ms)
        busy += unit.busy_s
        raw_busy += unit.raw_busy_s
        attempted += unit.attempted
        failed += unit.failed
        ratios += unit.ratios
        for message in unit.failures:
            print(f"FAILED {message}", file=sys.stderr)
        print(f"output_sha256 rep={rep} {unit.output_sha256}")
        rep += 1
        if time.perf_counter() >= deadline:
            break

    if ratios:
        report_optimality(workloads, ratios)
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted!r}")
    print(f"item_latency samples={len(latencies)}")
    completed = attempted - failed
    print(f"raw setup_s {statistics.median(raw for raw, _ in probes)!r} s")
    print(f"raw items_per_s {completed / raw_busy!r} 1/s")
    print(f"raw item_latency_p50_ms {statistics.median(raw_latencies)!r} ms")
    print(f"raw item_latency_p90_ms {statistics.quantiles(raw_latencies, n=10)[8]!r} ms")
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in probes), "s"),
        "items_per_s": (completed / busy, "1/s"),
        "item_latency_p50_ms": (statistics.median(latencies), "ms"),
        "item_latency_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, attempted, failed


def report_optimality(workloads, ratios) -> None:
    """mrsa against the exact oracle, per axis point and overall."""
    tol = workloads.cli.EXACT_RATIO_TOL
    for value in dict.fromkeys(v for v, _ in ratios):
        point = [r for v, r in ratios if v == value]
        print(f"mrsa_optimality hap_power={value} exact={sum(r >= 1 - tol for r in point)}"
              f"/{len(point)} ratio_mean={statistics.fmean(point)!r}")
    every = [r for _, r in ratios]
    print(f"mrsa_opt_ratio_mean {statistics.fmean(every)!r}")
    print(f"mrsa_exact_share {sum(r >= 1 - tol for r in every) / len(every)!r}")


def trace(workloads, tracing, wl, args) -> tuple[dict, int, int]:
    """Per-layer metrics: unit 0 untraced, then traced, until ``--seconds`` have passed."""
    wl.warm_up()
    summaries, overheads = [], []
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer = tracing.Tracer()
        plain = wl.run(0)
        traced = wl.run(0, tracer)
        overheads.append(traced.busy_s - plain.busy_s)
        summaries.append(tracer.summary())
        first = first or tracer
        for unit in (plain, traced):
            attempted += unit.attempted
            failed += unit.failed
            for message in unit.failures:
                print(f"FAILED {message}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            break

    problems = workloads.self_check(args.workload, summaries[0])
    for problem in problems:
        print(f"FAILED self-check {args.workload}: {problem}", file=sys.stderr)
    spans = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.tsv"
    first.write(spans)
    print(f"spans {len(first.spans)} of unit 0 written to {spans.relative_to(ROOT)}")
    print(f"traced_units {len(summaries)} items_per_unit {traced.attempted}")
    return tracing.layer_metrics(summaries, overheads), attempted, failed + len(problems)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One thread: set before numpy loads here and in the set-up probes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_package()
    import hostspeed
    import tracing
    import workloads

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.setup_probe:
            wl.warm_up()
            setup_s = time.perf_counter() - started
            host = hostspeed.HostSpeed()
            for _ in range(PROBE_SAMPLES):
                host.sample()
            print(repr(setup_s), repr(statistics.median(host.kernel_s)))
            return 0
        if args.trace:
            metrics, attempted, failed = trace(workloads, tracing, wl, args)
        else:
            metrics, attempted, failed = measure(workloads, hostspeed, wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failed:
        print(f"error: {failed} of {attempted} items failed a check; no result", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
