"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workload W ...] [--trace 0|1]
                                 [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed 1 to 10, one after
another, with the command line and run length that BENCHMARK.json gives. For
every metric it prints the median, the quartiles and the spread (third minus
first quartile, as a share of the median), and marks an end-to-end spread,
``setup_s`` included, that is not below a third of the metric's bound. ``--out`` writes the runs, the summary and the
machine they ran on as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    sha = [line.split()[-1] for line in lines if line.startswith("output_sha256 rep=0 ")]
    notes = [line for line in lines if line.startswith(("mrsa_", "item_latency", "raw "))]
    return {"seed": seed, "output_sha256_rep0": sha[0] if sha else None,
            "notes": notes, **result}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="any workload run.py knows (default: those of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(bench, workload, seed, args.trace) for seed in SEEDS]
        summary = {}
        for name in runs[0]["metrics"]:
            stats = summarise([run["metrics"][name]["value"] for run in runs])
            summary[name] = stats
            flag = ""
            if name in bounds and (stats["spread"] is None or stats["spread"] >= bounds[name] / 3):
                flag = f"  <-- not below a third of bound {bounds[name]}"
                steady = False
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"{workload:16s} {name:28s} median {stats['median']:.6g}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread}{flag}", flush=True)
        record["workloads"][workload] = {"seeds": list(SEEDS), "summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
