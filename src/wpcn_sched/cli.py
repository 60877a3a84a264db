"""Experiment harness: seeded Monte Carlo sweeps and single-instance solves.

Subcommands:
    gen    draw a random network instance and write it as JSON
    solve  run one scheduling algorithm on an instance file
    sweep  run a Monte Carlo sweep over an axis and write per-point CSV

Exit codes: 0 success, 2 configuration or parse error (a rate that
overflows, a drawn link gain out of range, too many users for an
exhaustive solver and a throughput LP the exact solver cannot resolve
included), 3 infeasible solve.
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
from dataclasses import dataclass, field

from . import lp, mls, netgen, stm
from .model import (
    BRUTE_FORCE_LIMIT,
    Infeasible,
    NetworkInstance,
    RateOverflow,
    TooLarge,
    check_types,
    from_dict,
    instance_from_dict,
    instance_to_dict,
    is_number,
    to_dict,
    validate,
)
from .netgen import RNG_NAME, GenConfig, config_from_dict, derive_seed, sample

PROBLEMS = ("mls", "stm")
EXACT_RATIO_TOL = 1e-6  # mrsa counts as exactly optimal at ratio >= 1 - this

# Each axis: its stand-in default grid (the interesting qualitative behavior
# happens inside these ranges with the default generator settings) and the
# generator config at one value.
_AXES = {
    "hap_power": ((0.5, 1.0, 2.0, 4.0, 8.0), lambda gen, value: dataclasses.replace(
        gen, system=dataclasses.replace(gen.system, p_h=value))),
    "user_power": ((0.01, 0.05, 0.1, 0.5, 1.0), lambda gen, value: dataclasses.replace(
        gen, system=dataclasses.replace(gen.system, p_max=value))),
    "n_users": ((2, 4, 6, 8, 10, 15, 20),
                lambda gen, value: dataclasses.replace(gen, n_users=int(value))),
}
AXES = tuple(_AXES)

# Per-trial metrics reported as a mean and a population std per point.
METRICS = ("mlsa_length", "pdo_length", "mrsa_throughput", "opt_throughput")
# Fixed CSV schema; blank cells mean the metric was not computed.
CSV_COLUMNS = ("axis_value", "trials", "infeasible",
               *(f"{metric}_{stat}" for metric in METRICS for stat in ("mean", "std")),
               "mrsa_opt_ratio_mean", "exact_optimal_count")


class ConfigError(Exception):
    """Invalid configuration, or an input file that is unreadable or malformed."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, the grid, and the shared generator settings.

    ``values=None`` is the axis's default grid. Construction builds every
    point's generator config into ``points``, in ``values`` order, and the
    sweep runs exactly these configs. A rule of the spec, or a value the
    model rejects at a point, raises ValueError here, as in GenConfig.
    """

    axis: str
    gen: GenConfig
    values: tuple[float, ...] | None = None
    trials: int = 100
    problems: tuple[str, ...] = PROBLEMS
    oracle: bool = False
    points: tuple[GenConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        values = _AXES[self.axis][0] if self.values is None else self.values
        if not isinstance(values, (list, tuple)) or not all(map(is_number, values)):
            raise ValueError(f"values must be a list of numbers, got {values!r}")
        object.__setattr__(self, "values", tuple(values))   # JSON reads lists
        object.__setattr__(self, "problems", tuple(self.problems))
        if not self.values:
            raise ValueError("values must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.problems or any(p not in PROBLEMS for p in self.problems):
            raise ValueError(f"problems must be a nonempty subset of {PROBLEMS}")
        if self.axis == "n_users":
            if any(not float(v).is_integer() or v < 1 for v in self.values):
                raise ValueError("n_users axis values must be positive integers")
        at = _AXES[self.axis][1]
        object.__setattr__(self, "points", tuple(at(self.gen, value) for value in self.values))
        n_max = max(config.n_users for config in self.points)
        if self.oracle and n_max > BRUTE_FORCE_LIMIT:
            raise ValueError(f"oracle requested with {n_max} users; limit is {BRUTE_FORCE_LIMIT}")


def spec_from_dict(data: dict) -> SweepSpec:
    """SweepSpec from a JSON object, read like the generator config it holds.

    Raises the model's KeyError, TypeError or ValueError, as
    :func:`netgen.config_from_dict` does.
    """
    return from_dict(SweepSpec, {**data, "gen": config_from_dict(data["gen"])})


def _checked(instance: NetworkInstance, schedule, check_traffic: bool):
    report = validate(instance, schedule, check_traffic=check_traffic)
    if not report.ok:
        raise RuntimeError("solver emitted an infeasible schedule")  # internal bug
    return report


def run_trial(instance: NetworkInstance, problems: tuple[str, ...], oracle: bool) -> dict:
    """Solve one trial's instance for each requested problem; every schedule
    is replay-checked. The instance is given, not drawn: see :func:`run_sweep`."""
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
    try:
        mean = math.fsum(values) / n
        return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)
    except OverflowError:   # a sum or square past the largest double: scale into [-1, 1]
        scale = max(map(abs, values))
        mean, std = _mean_std([v / scale for v in values])
        return mean * scale, std * scale


def run_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Run the sweep; returns (per-point rows, per-trial raw records).

    Trial t meets the same users at every axis point, so curves are paired
    across the axis. They are drawn once, at the trial's first point, with
    trial t's derived seed and the config of the point with the most users
    (the first on a tie). Each point solves its own system over the first
    ``n_users`` of them: the instance its own config draws with that seed,
    since an axis sets only ``system``, which ``sample`` never reads, or
    ``n_users``, and an n-user draw is the first n users of any larger one.
    Every trial's users are held until the last point, about 250 B each.
    Points run in ``values`` order, all trials of one before the next.
    Infeasible trials are counted per point and excluded from the length
    statistics.
    """
    widest = max(spec.points, key=lambda config: config.n_users)
    seeds = [derive_seed(spec.gen.seed, t) for t in range(spec.trials)]
    users = []   # each trial's, drawn at its first point
    rows = []
    raw = []
    for value, config in zip(spec.values, spec.points):
        trials: list[dict] = []
        for t, seed in enumerate(seeds):
            if t == len(users):
                users.append(sample(dataclasses.replace(widest, seed=seed)).users)
            instance = NetworkInstance(config.system, users[t][:config.n_users])
            record = run_trial(instance, spec.problems, spec.oracle)
            trials.append(record)
            raw.append({"axis": spec.axis, "axis_value": value, "trial": t,
                        "seed": seed, **record})

        row = {"axis_value": value, "trials": spec.trials,
               "infeasible": sum(1 for r in trials if r["infeasible"])}
        # Infeasible trials carry no length keys, so they drop out here.
        for key in METRICS:
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


def _read_input(path: str, what: str, reader, cls: type | None = None, **flags):
    """``reader`` of the JSON in ``path``, each flag that is not ``None``
    replacing its field of dataclass ``cls`` once the file's own values
    pass :func:`model.check_types`.

    Raises:
        ConfigError: ``cannot read <path>``, or ``bad <what>: ...`` for a
            KeyError, TypeError or ValueError from the check or ``reader``.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    flags = {name: value for name, value in flags.items() if value is not None}
    try:
        if flags:
            check_types(cls, data)
            data = {**data, **flags}
        return reader(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def solve_one(instance: NetworkInstance, problem: str, algorithm: str) -> dict:
    """Run one algorithm and return a JSON-ready result with its replay report.

    Raises:
        ConfigError: unknown problem/algorithm combination, or a throughput
            past the largest double.
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
    if math.isinf(report.throughput):
        raise ConfigError("throughput overflows: the demands sum past the largest double")

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
    config = _read_input(args.config, "generator config", config_from_dict, GenConfig,
                         seed=args.seed)
    _check_writable_target(args.out)
    instance = sample(config)
    payload = instance_to_dict(instance)
    payload["provenance"] = {"generator": RNG_NAME, "config": to_dict(config)}
    with _replacing(args.out) as fh:
        fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_solve(args) -> int:
    instance = _read_input(args.instance, "instance file", instance_from_dict)
    result = solve_one(instance, args.problem, args.alg)
    sys.stdout.write(json.dumps(result, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    spec = _read_input(args.spec, "sweep spec", spec_from_dict, SweepSpec, trials=args.trials)
    for path in (args.out, args.raw):
        if path:
            _check_writable_target(path)
    if args.raw and os.path.realpath(args.raw) == os.path.realpath(args.out):
        raise ConfigError(f"--out and --raw name the same file {args.raw}")
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
    except (ConfigError, RateOverflow, TooLarge,
            netgen.GainOutOfRange, lp.NumericalBreakdown) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
