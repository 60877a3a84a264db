"""The benchmark's workloads: inputs made from a seed, one unit of work, output checks.

A unit of work is a list of items run back to back by one caller (a closed
loop). On the sweep workloads an item is one ``cli.run_trial`` call inside
``cli.main(["sweep", ...])``; on ``fixed-order-lp`` it is one
``stm.fixed_order_stm`` call. Item timestamps are taken only at that boundary.

Every output is checked after the unit, with no wrapper installed: each
schedule a solver returned is replayed through ``validate``, and each number
the sweep reports is compared with the solutions it came from.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field

from wpcn_sched import cli, model, netgen, stm

import hostspeed
import tracing

REL_TOL = 1e-9
ORACLE_USERS = 6
# Non-zero batteries and a 1 m inner radius: the regime where mrsa misses the
# optimum, and where sweep means converge (see netgen.GenConfig).
GEN = {"n_users": ORACLE_USERS, "seed": 0, "battery_max": 0.001, "min_distance": 1.0}
SWEEPS = {  # workload -> (sweep spec fields, trials per point)
    "oracle-stm": ({"axis": "hap_power", "values": [0.5, 2, 8], "oracle": True}, 2),
    # no values: the CLI's default n_users grid, 2..20
    "heuristic-sweep": ({"axis": "n_users", "oracle": False}, 20),
}
LP_SIZES = (25, 50, 100)
LP_INSTANCES_PER_SIZE = 8

# Traced function -> the workloads whose traced run must call it.
_HEURISTIC_PATH = (
    "cli.run_sweep", "cli.run_trial", "cli.write_csv", "netgen.sample",
    "model.rate", "model.harvest_rate", "model.tau_min", "model.s_min", "model.validate",
    "mls.mlsa", "mls.pdo", "mls.fixed_order_mls", "stm.mrsa",
)
_LP_PATH = ("stm.fixed_order_stm", "stm.throughput_lp", "lp.solve",
            "model.rate", "model.harvest_rate")
MUST_CALL = {
    "oracle-stm": tracing.TRACED,
    "heuristic-sweep": _HEURISTIC_PATH,
    "fixed-order-lp": _LP_PATH,
}
MUST_NOT_CALL = {
    "heuristic-sweep": ("lp.solve", "stm.fixed_order_stm", "stm.throughput_lp",
                        "stm.brute_force_stm"),
}


def rep_seed(seed: int, rep: int) -> str:
    """Seed of unit ``rep``'s inputs; str seeds of ``random.Random`` are stable across runs."""
    return f"{seed}/{rep}"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Unit:
    """Outcome of one unit of work."""

    latencies_ms: array  # scaled to the nominal host (see hostspeed), or raw when not sampled
    busy_s: float        # time inside the package's entry point, scaled the same way
    raw_latencies_ms: array
    raw_busy_s: float
    attempted: int
    failed: int
    failures: list[str]
    output_sha256: str
    ratios: list[tuple[float, float]] = field(default_factory=list)  # (axis value, mrsa/opt)


def _scaled(host: hostspeed.HostSpeed | None, start: float, end: float) -> tuple[float, float]:
    """(raw, scaled) seconds from start to end; both raw without a host."""
    return (end - start, end - start) if host is None else host.scaled(start, end)


def _latencies_ms(host: hostspeed.HostSpeed | None,
                  spans: list[tuple[float, float]]) -> tuple[array, array]:
    """(raw, scaled) milliseconds of each (start, end) span."""
    times = [_scaled(host, start, end) for start, end in spans]
    return array("d", (raw * 1e3 for raw, _ in times)), array("d", (s * 1e3 for _, s in times))


class SweepWorkload:
    """Repeated ``wpcn-sched sweep`` runs; unit ``rep`` sweeps with generator seed ``gen_seed(rep)``."""

    def __init__(self, name: str, seed: int, workdir) -> None:
        extra, self.trials = SWEEPS[name]
        self.name = name
        self.oracle = extra["oracle"]
        self.axis = extra["axis"]
        self.base = {**extra, "gen": GEN, "problems": ["mls", "stm"], "trials": self.trials}
        self.values = cli.spec_from_dict(self.base).values
        self.spec_path = workdir / "spec.json"
        self.csv_path = workdir / "out.csv"
        self.seed = seed
        self._sha: dict[int, str] = {}

    def gen_seed(self, rep: int) -> int:
        return random.Random(rep_seed(self.seed, rep)).getrandbits(63)

    def _sweep(self, spec: dict) -> int:
        self.spec_path.write_text(json.dumps(spec))
        return cli.main(["sweep", "--spec", str(self.spec_path), "--out", str(self.csv_path)])

    def warm_up(self) -> None:
        spec = {**self.base, "values": list(self.values[:1]), "trials": 1,
                "gen": {**GEN, "seed": self.gen_seed(0)}}
        if self._sweep(spec) != 0:
            raise CheckFailed("warm-up sweep failed")

    def run(self, rep: int, tracer: tracing.Tracer | None = None,
            host: hostspeed.HostSpeed | None = None) -> Unit:
        spec = {**self.base, "gen": {**GEN, "seed": self.gen_seed(rep)}}
        items: list[list] = []  # [start, end, record, {solver: (instance, solution)}]
        clock = time.perf_counter

        def timed(run_trial):
            def item(*args, **kwargs):
                entry = [0.0, 0.0, None, {}]
                items.append(entry)
                if tracer is not None:
                    tracer.item = len(items) - 1
                entry[0] = clock()
                entry[2] = run_trial(*args, **kwargs)
                entry[1] = clock()
                return entry[2]
            return item

        def captured(label):
            def make(solver):
                def capture(instance, *args, **kwargs):
                    solution = solver(instance, *args, **kwargs)
                    items[-1][3][label] = (instance, solution)
                    return solution
                return capture
            return make

        failures: list[str] = []
        with contextlib.ExitStack() as hooks:
            for qualname in ("mls.mlsa", "mls.pdo", "stm.mrsa", "stm.brute_force_stm"):
                hooks.enter_context(tracing.rebound(qualname, captured(qualname.split(".")[1])))
            if tracer is not None:
                hooks.enter_context(tracer.installed())
            hooks.enter_context(tracing.rebound("cli.run_trial", timed))
            if host is not None:
                hooks.enter_context(host)
            start = clock()
            try:
                code = self._sweep(spec)
            except Exception as exc:  # the sweep stops; its unfinished trial fails below
                code = None
                failures.append(f"{self.name} rep {rep}: sweep raised {exc!r}")
            stop = clock()

        raw_busy, busy = _scaled(host, start, stop)
        raw, latencies = _latencies_ms(host, [(begin, end) for begin, end, _, _ in items if end > 0.0])
        expected = len(self.values) * self.trials
        ratios: list[tuple[float, float]] = []
        bad = 0
        for k, (_, end, record, solutions) in enumerate(items):
            value = self.values[min(k // self.trials, len(self.values) - 1)]
            try:
                _require(end > 0.0, "trial did not complete")
                ratio = self._check_trial(value, record, solutions)
            except Exception as exc:
                bad += 1
                failures.append(f"{self.name} rep {rep} item {k}: {exc!r}")
                continue
            if ratio is not None:
                ratios.append((value, ratio))

        sha = ""
        try:
            _require(code == 0, f"sweep exited with {code}")
            _require(len(items) == expected, f"{len(items)} trials run, {expected} expected")
            data = self.csv_path.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            _require(self._sha.setdefault(rep, sha) == sha, "CSV differs from an earlier run")
            self._check_csv(data, items)
        except Exception as exc:
            failures.append(f"{self.name} rep {rep}: {exc!r}")
            bad = expected
        return Unit(latencies, busy, raw, raw_busy, max(expected, len(items)), bad, failures,
                    sha, ratios)

    def _check_trial(self, value: float, record: dict, solutions: dict) -> float | None:
        """Replay every schedule of one trial; returns mrsa/opt on the oracle sweep."""
        def replayed(label: str, traffic: bool):
            _require(label in solutions, f"{label} was not called")
            instance, solution = solutions[label]
            report = model.validate(instance, solution.schedule, check_traffic=traffic)
            _require(report.ok, f"{label} schedule fails validate")
            _require(_close(report.length, solution.length) if traffic
                     else _close(report.throughput, solution.throughput),
                     f"{label} result differs from its replay")
            if self.axis == "n_users":
                _require(instance.n_users == int(value), f"{label} instance has wrong size")
            else:
                _require(instance.params.p_h == value, f"{label} instance has wrong p_h")
            return solution

        if not record["infeasible"]:
            opt = replayed("mlsa", True)
            base = replayed("pdo", True)
            _require(_close(record["mlsa_length"], opt.length), "mlsa length differs")
            _require(_close(record["pdo_length"], base.length), "pdo length differs")
            _require(opt.length <= base.length * (1 + REL_TOL), "mlsa longer than pdo")
        heur = replayed("mrsa", False)
        _require(_close(record["mrsa_throughput"], heur.throughput), "mrsa throughput differs")
        if not self.oracle:
            _require("brute_force_stm" not in solutions, "oracle ran on a heuristic sweep")
            return None
        exact = replayed("brute_force_stm", False)
        _require(_close(record["opt_throughput"], exact.throughput), "opt throughput differs")
        _require(heur.throughput <= exact.throughput * (1 + REL_TOL), "mrsa beats the oracle")
        ratio = heur.throughput / exact.throughput if exact.throughput > 0 else 1.0
        _require(_close(record["mrsa_opt_ratio"], ratio), "mrsa/opt ratio differs")
        return ratio

    def _check_csv(self, data: bytes, items: list[list]) -> None:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        _require(len(rows) == len(self.values), "CSV has the wrong number of rows")
        for point, row in enumerate(rows):
            records = [entry[2] for entry in items[point * self.trials:(point + 1) * self.trials]]
            _require(int(row["trials"]) == self.trials, f"row {point}: trials")
            _require(int(row["infeasible"]) == sum(r["infeasible"] for r in records),
                     f"row {point}: infeasible count")
            mean = math.fsum(r["mrsa_throughput"] for r in records) / len(records)
            _require(_close(float(row["mrsa_throughput_mean"]), mean), f"row {point}: mrsa mean")
            if self.oracle:
                hits = sum(r["mrsa_opt_ratio"] >= 1 - cli.EXACT_RATIO_TOL for r in records)
                _require(int(row["exact_optimal_count"]) == hits, f"row {point}: exact count")


class FixedOrderWorkload:
    """Exact allocations for fixed orders on large instances.

    Unit ``rep`` solves, once each, both orders of its own instances, drawn
    from the rep-th seed; unit 0's are drawn during set-up.
    """

    name = "fixed-order-lp"

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self._unit0 = self._items(0)
        self._first: dict[int, float] = {}  # unit 0 item -> throughput on its first run

    def _items(self, rep: int) -> list[tuple]:
        """(instance, slot order, kind, mrsa throughput) per item, sizes interleaved."""
        rng = random.Random(rep_seed(self.seed, rep))
        items = []
        for _ in range(LP_INSTANCES_PER_SIZE):
            for n in LP_SIZES:
                instance = netgen.sample(netgen.config_from_dict(
                    {**GEN, "n_users": n, "seed": rng.getrandbits(63)}))
                rates = [model.rate(instance.params, user) for user in instance.users]
                # mrsa's slot order: ascending rate, ties by descending index
                max_rate_first = tuple(sorted(range(1, n + 1), key=lambda i: (rates[i - 1], -i)))
                items.append((instance, max_rate_first, "max-rate", stm.mrsa(instance).throughput))
                items.append((instance, tuple(range(1, n + 1)), "index", None))
        return items

    def warm_up(self) -> None:
        for instance, order, _, _ in self._unit0[:2 * len(LP_SIZES):2]:
            stm.fixed_order_stm(instance, order)

    def run(self, rep: int, tracer: tracing.Tracer | None = None,
            host: hostspeed.HostSpeed | None = None) -> Unit:
        items = self._unit0 if rep == 0 else self._items(rep)
        clock = time.perf_counter
        spans = []
        results = []
        failures: list[str] = []
        with (tracer.installed() if tracer is not None else contextlib.nullcontext(),
              host if host is not None else contextlib.nullcontext()):
            for k, (instance, order, _, _) in enumerate(items):
                if tracer is not None:
                    tracer.item = k
                start = clock()
                try:
                    solution = stm.fixed_order_stm(instance, order)
                except Exception as exc:  # the item fails; the unit goes on
                    failures.append(f"{self.name} rep {rep} item {k}: raised {exc!r}")
                    continue
                spans.append((start, clock()))
                results.append((k, solution))

        raw, latencies = _latencies_ms(host, spans)

        digest = hashlib.sha256()
        bad = len(items) - len(results)
        for k, solution in results:
            try:
                self._check(items[k], solution)
                if rep == 0:
                    _require(self._first.setdefault(k, solution.throughput) == solution.throughput,
                             "throughput differs from an earlier run")
            except Exception as exc:
                bad += 1
                failures.append(f"{self.name} rep {rep} item {k}: {exc!r}")
            digest.update(f"{k} {solution.throughput!r}\n".encode())
        return Unit(latencies, math.fsum(latencies) / 1e3, raw, math.fsum(raw) / 1e3,
                    len(items), bad, failures, digest.hexdigest())

    @staticmethod
    def _check(item: tuple, solution) -> None:
        instance, order, kind, floor = item
        report = model.validate(instance, solution.schedule)
        _require(report.ok, "schedule fails validate")
        _require(_close(report.throughput, solution.throughput), "throughput differs from replay")
        remaining = iter(order)
        _require(all(slot.user in remaining for slot in solution.schedule.slots),
                 "slots are out of order")
        if kind == "max-rate":
            _require(solution.throughput >= floor * (1 - REL_TOL), "below mrsa")


def make(name: str, seed: int, workdir):
    if name == FixedOrderWorkload.name:
        return FixedOrderWorkload(seed, workdir)
    return SweepWorkload(name, seed, workdir)


def self_check(name: str, summary: dict) -> list[str]:
    """Problems with one traced unit: a wrapper never reached, or a call count that is off."""
    problems = [f"{fn} was never called" for fn in MUST_CALL[name]
                if summary[fn]["calls"] == 0]
    problems += [f"{fn} was called" for fn in MUST_NOT_CALL.get(name, ())
                 if summary[fn]["calls"] != 0]
    if name == "oracle-stm":
        trials = summary["cli.run_trial"]["calls"]
        orders = summary["stm.fixed_order_stm"]["calls"]
        if orders != math.factorial(ORACLE_USERS) * trials:
            problems.append(f"{orders} fixed-order solves for {trials} trials")
    return problems
