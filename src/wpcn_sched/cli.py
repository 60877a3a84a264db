"""Experiment harness: seeded Monte Carlo sweeps and single-instance solves.

Subcommands:
    gen    draw a random network instance and write it as JSON
    solve  run one scheduling algorithm on an instance file
    sweep  run a Monte Carlo sweep over an axis and write per-point CSV

Exit codes: 0 success, 2 configuration or parse error (a rate that
overflows included), 3 infeasible solve.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass

from . import mls, stm
from .model import (
    BRUTE_FORCE_LIMIT,
    Infeasible,
    NetworkInstance,
    RateOverflow,
    check_types,
    instance_from_dict,
    instance_to_dict,
    to_dict,
    validate,
)
from .netgen import RNG_NAME, GenConfig, config_from_dict, config_to_dict, derive_seed, sample

AXES = ("hap_power", "user_power", "n_users")
PROBLEMS = ("mls", "stm")
EXACT_RATIO_TOL = 1e-6  # mrsa counts as exactly optimal at ratio >= 1 - this

# Fixed CSV schema; blank cells mean the metric was not computed.
CSV_COLUMNS = (
    "axis_value",
    "trials",
    "infeasible",
    "mlsa_length_mean",
    "mlsa_length_std",
    "pdo_length_mean",
    "pdo_length_std",
    "mrsa_throughput_mean",
    "mrsa_throughput_std",
    "opt_throughput_mean",
    "opt_throughput_std",
    "mrsa_opt_ratio_mean",
    "exact_optimal_count",
)

# Stand-in sweep grids; the interesting qualitative behavior happens inside
# these ranges with the default generator settings.
DEFAULT_GRIDS = {
    "hap_power": (0.5, 1.0, 2.0, 4.0, 8.0),
    "user_power": (0.01, 0.05, 0.1, 0.5, 1.0),
    "n_users": (2, 4, 6, 8, 10, 15, 20),
}


class ConfigError(Exception):
    """Invalid sweep/solve configuration."""


class ParseError(ConfigError):
    """Input file is not valid JSON or misses required fields."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, the grid, and the shared generator settings."""

    axis: str
    values: tuple[float, ...]
    trials: int
    gen: GenConfig
    problems: tuple[str, ...] = PROBLEMS
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("values must be nonempty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.problems or any(p not in PROBLEMS for p in self.problems):
            raise ConfigError(f"problems must be a nonempty subset of {PROBLEMS}")
        if self.axis == "n_users":
            if any(not float(v).is_integer() or v < 1 for v in self.values):
                raise ConfigError("n_users axis values must be positive integers")
        if self.oracle:
            n_max = max(int(v) for v in self.values) if self.axis == "n_users" \
                else self.gen.n_users
            if n_max > BRUTE_FORCE_LIMIT:
                raise ConfigError(
                    f"oracle requested with {n_max} users; limit is {BRUTE_FORCE_LIMIT}")


def spec_from_dict(data: dict, trials_override: int | None = None) -> SweepSpec:
    """Build a SweepSpec; omitted ``values`` fall back to the default grid.

    Every axis point's generator config is built here, so a value the
    model rejects is a ParseError before any trial runs.
    """
    try:
        gen = config_from_dict(data["gen"])
        axis = data["axis"]
        values = data.get("values", DEFAULT_GRIDS.get(axis, ()))
        if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ValueError(f"values must be a list of numbers, got {values!r}")
        check_types(SweepSpec, data)
        trials = data.get("trials", 100)
        spec = SweepSpec(
            axis=axis,
            values=tuple(values),
            trials=trials if trials_override is None else trials_override,
            gen=gen,
            problems=tuple(data.get("problems", PROBLEMS)),
            oracle=data.get("oracle", False),
        )
        for value in spec.values:
            _config_at(gen, axis, value)
        return spec
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad sweep spec: {exc}") from exc


def _config_at(gen: GenConfig, axis: str, value: float) -> GenConfig:
    if axis == "hap_power":
        return dataclasses.replace(gen, system=dataclasses.replace(gen.system, p_h=value))
    if axis == "user_power":
        return dataclasses.replace(gen, system=dataclasses.replace(gen.system, p_max=value))
    return dataclasses.replace(gen, n_users=int(value))


def _checked(instance: NetworkInstance, schedule, check_traffic: bool):
    report = validate(instance, schedule, check_traffic=check_traffic)
    if not report.ok:
        raise RuntimeError("solver emitted an infeasible schedule")  # internal bug
    return report


def run_trial(config: GenConfig, problems: tuple[str, ...], oracle: bool) -> dict:
    """Solve one random realization; every schedule is replay-checked."""
    instance = sample(config)
    record: dict = {"infeasible": False}
    if "mls" in problems:
        try:
            opt = mls.mlsa(instance)
            base = mls.pdo(instance)
            _checked(instance, opt.schedule, True)
            _checked(instance, base.schedule, True)
            record["mlsa_length"] = opt.length
            record["pdo_length"] = base.length
        except Infeasible:
            record["infeasible"] = True
    if "stm" in problems:
        heur = stm.mrsa(instance)
        _checked(instance, heur.schedule, False)
        record["mrsa_throughput"] = heur.throughput
        if oracle:
            exact = stm.brute_force_stm(instance)
            _checked(instance, exact.schedule, False)
            record["opt_throughput"] = exact.throughput
            # Both zero means nobody can transmit at all; call that a hit.
            record["mrsa_opt_ratio"] = (heur.throughput / exact.throughput
                                        if exact.throughput > 0 else 1.0)
    return record


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def run_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Run the sweep; returns (per-point rows, per-trial raw records).

    Trial t reuses the same derived seed at every axis point, so curves are
    paired across the axis. Infeasible trials are counted per point and
    excluded from the length statistics.
    """
    rows = []
    raw = []
    for value in spec.values:
        config = _config_at(spec.gen, spec.axis, value)
        trials: list[dict] = []
        for t in range(spec.trials):
            trial_config = dataclasses.replace(config, seed=derive_seed(spec.gen.seed, t))
            record = run_trial(trial_config, spec.problems, spec.oracle)
            trials.append(record)
            raw.append({"axis": spec.axis, "axis_value": value, "trial": t,
                        "seed": trial_config.seed, **record})

        row = {"axis_value": value, "trials": spec.trials,
               "infeasible": sum(1 for r in trials if r["infeasible"])}
        # Infeasible trials carry no length keys, so they drop out here.
        for key in ("mlsa_length", "pdo_length", "mrsa_throughput", "opt_throughput"):
            row[f"{key}_mean"], row[f"{key}_std"] = _mean_std([r[key] for r in trials
                                                                 if key in r])
        ratios = [r["mrsa_opt_ratio"] for r in trials if "mrsa_opt_ratio" in r]
        row["mrsa_opt_ratio_mean"] = _mean_std(ratios)[0]
        row["exact_optimal_count"] = (sum(1 for r in ratios if r >= 1.0 - EXACT_RATIO_TOL)
                                      if ratios else None)
        rows.append(row)
    return rows, raw


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


@contextlib.contextmanager
def _replacing(path: str):
    """Text file handle whose content replaces ``path`` only when the block
    completes; on any error ``path`` keeps its old content and the temp
    file beside it is removed. Guards against half-written outputs, not
    against power loss (no fsync). A symlink is followed, so the file it
    names is replaced and the link kept, with that file's permissions; a
    target that is not a regular file (``/dev/null``, a FIFO) is written
    directly."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(real, "w", newline="") as fh:
            yield fh
        return
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        if os.path.exists(real):
            shutil.copymode(real, tmp)
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _check_writable_target(path: str) -> None:
    """Refuse an output path whose file cannot be made, before any work runs:
    its directory is missing, or the path names a directory."""
    real = os.path.realpath(path)
    if os.path.isdir(real):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(real)):
        raise ConfigError(f"cannot write {path}: directory {os.path.dirname(real)} "
                          "does not exist")


def write_csv(rows: list[dict], path: str) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])


def write_jsonl(records: list[dict], path: str) -> None:
    with _replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def solve_one(instance: NetworkInstance, problem: str, algorithm: str) -> dict:
    """Run one algorithm and return a JSON-ready result with its replay report.

    Raises:
        ConfigError: unknown problem/algorithm combination.
        Infeasible: the minimum-length problem has no solution.
    """
    solvers = {
        ("mls", "mlsa"): mls.mlsa,
        ("mls", "pdo"): mls.pdo,
        ("mls", "opt"): mls.brute_force_mls,
        ("stm", "mrsa"): stm.mrsa,
        ("stm", "opt"): stm.brute_force_stm,
    }
    solver = solvers.get((problem, algorithm))
    if solver is None:
        raise ConfigError(f"no algorithm {algorithm!r} for problem {problem!r}")
    solution = solver(instance)
    report = _checked(instance, solution.schedule, problem == "mls")

    result = {
        "problem": problem,
        "algorithm": algorithm,
        **to_dict(solution.schedule),
        "length": report.length,
        "throughput": report.throughput,
        "feasibility": {
            "energy_ok": {str(k): v for k, v in report.energy_ok.items()},
            "traffic_ok": {str(k): v for k, v in report.traffic_ok.items()},
            "ok": report.ok,
        },
    }
    if problem == "stm":
        result["scheduled_users"] = list(solution.scheduled_users)
    return result


def _cmd_gen(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        config = config_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad generator config: {exc}") from exc
    _check_writable_target(args.out)
    instance = sample(config)
    payload = instance_to_dict(instance)
    payload["provenance"] = {"generator": RNG_NAME, "config": config_to_dict(config)}
    with _replacing(args.out) as fh:
        fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_solve(args) -> int:
    data = _load_json(args.instance)
    try:
        instance = instance_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad instance file: {exc}") from exc
    result = solve_one(instance, args.problem, args.alg)
    sys.stdout.write(json.dumps(result, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    spec = spec_from_dict(_load_json(args.spec), trials_override=args.trials)
    for path in (args.out, args.raw):
        if path:
            _check_writable_target(path)
    rows, raw = run_sweep(spec)
    write_csv(rows, args.out)
    if args.raw:
        write_jsonl(raw, args.raw)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpcn-sched",
        description="Schedulers and Monte Carlo experiments for wireless "
                    "powered networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="draw a random network instance")
    p_gen.add_argument("--config", required=True, help="generator config JSON")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="override the seed in the config")
    p_gen.add_argument("--out", required=True, help="output instance JSON")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--instance", required=True, help="instance JSON")
    p_solve.add_argument("--problem", required=True, choices=PROBLEMS)
    p_solve.add_argument("--alg", required=True,
                         choices=("mlsa", "pdo", "mrsa", "opt"))
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", required=True, help="output CSV")
    p_sweep.add_argument("--raw", default=None, help="optional per-trial JSONL")
    p_sweep.add_argument("--trials", type=int, default=None,
                         help="override the trial count (specs default to "
                              "100; use 1000 for publication-scale averages)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RateOverflow) as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
