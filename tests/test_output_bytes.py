"""Output bytes pinned across versions of the package.

The files under ``data/bytes`` are the exact outputs of ``gen``, ``solve``
and ``sweep`` on the inputs below, plus the ``repr`` of fixed-order
throughput allocations (large ones, and small battery-rich ones whose LPs
take the simplex) and of the exact throughput oracle's winners, and the
path every order's LP takes in that oracle. Refactors
must reproduce them byte for byte; only a change meant to alter the outputs
may rewrite them, and its change log then says why. They were written on CPython 3.11 with numpy 2.4.
Every STM throughput is a left fold of its terms, not ``sum()``, which
compensates from CPython 3.12 on, so that change does not move them.
"""

import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import wpcn_sched
from wpcn_sched import lp, model, netgen, stm
from wpcn_sched.cli import main

BYTES = pathlib.Path(__file__).parent / "data" / "bytes"

# Empty batteries make the minimum-length order matter; small ones put the
# throughput oracle where mrsa misses the optimum.
GEN = {"n_users": 5, "seed": 2024, "system": {"p_h": 2.0, "p_max": 0.1},
       "min_distance": 1.0}
# The pinned gen outputs, by file name: GEN itself (empty batteries), and
# one each with a uniform battery draw, no shadowing draw and no fading draw.
GENS = {
    "gen_instance.json": GEN,
    "gen_battery.json": {**GEN, "battery_max": 0.001},
    "gen_no_shadowing.json": {**GEN, "shadow_sigma_db": 0.0},
    "gen_no_fading.json": {**GEN, "fading": False},
}
SWEEPS = {
    "hap_power": {"axis": "hap_power", "values": [0.5, 2.0, 8.0], "trials": 4,
                  "gen": {**GEN, "seed": 7, "battery_max": 0.001},
                  "problems": ["mls", "stm"], "oracle": True},
    "n_users": {"axis": "n_users", "values": [2, 6, 12], "trials": 5,
                "gen": {**GEN, "seed": 11}, "problems": ["mls", "stm"], "oracle": False},
    "user_power": {"axis": "user_power", "values": [0.01, 0.1, 1.0], "trials": 3,
                   "gen": {**GEN, "seed": 13, "battery_max": 0.001},
                   "problems": ["mls", "stm"], "oracle": True},
    # Out of order and with a point below the spec's own n_users.
    "n_users_unsorted": {"axis": "n_users", "values": [12, 2, 6, 1], "trials": 5,
                         "gen": {**GEN, "seed": 17}, "problems": ["mls", "stm"],
                         "oracle": False},
}
SOLVES = (("mls", "mlsa"), ("mls", "pdo"), ("mls", "opt"), ("stm", "mrsa"), ("stm", "opt"))
# (n_users, seed) of the large fixed-order allocations, drawn like the
# benchmark's: the 50- and 100-user index orders take the repaired LP path.
LARGE = ((25, 0), (50, 0), (100, 0), (100, 3))
LARGE_GEN = {"battery_max": 0.001, "min_distance": 1.0}
# Seeds of the battery-rich instances: one battery can fill the frame, the
# optimum has tau0 = 0, and every order's LP takes the pivoted path.
RICH = (0, 1, 2)
RICH_GEN = {"n_users": 3, "system": {"p_h": 1.0, "p_max": 0.01}, "battery_max": 0.01}
# Configs of the brute_force_stm winners: N=6 in the benchmark's regime at
# each of its HAP powers, empty batteries at N=4, one N=7 instance, and the
# battery-rich instances above.
ORACLE_GEN = {"battery_max": 0.001, "min_distance": 1.0}
ORACLE = (
    *({**ORACLE_GEN, "n_users": 6, "seed": seed, "system": {"p_h": p_h, "p_max": 0.1}}
      for p_h in (0.5, 2.0, 8.0) for seed in (0, 1)),
    {"n_users": 4, "seed": 0, "min_distance": 1.0},
    {**ORACLE_GEN, "n_users": 7, "seed": 0},
    *({**RICH_GEN, "seed": seed} for seed in RICH),
)


def fixed_order_lines() -> str:
    """Header, throughput, tau0 and every slot of ``fixed_order_stm`` per
    large instance, in index order and in max-rate-first order."""
    lines = []
    for n, seed in LARGE:
        instance = netgen.sample(netgen.config_from_dict({**LARGE_GEN, "n_users": n,
                                                          "seed": seed}))
        rates = [model.rate(instance.params, user) for user in instance.users]
        orders = {"index": tuple(range(1, n + 1)),
                  "max-rate-first": tuple(sorted(range(1, n + 1),
                                                 key=lambda i: (rates[i - 1], -i)))}
        for name, order in orders.items():
            path = lp.solve(stm.throughput_lp(instance, order)).path
            solution = stm.fixed_order_stm(instance, order)
            lines.append(f"n_users {n} seed {seed} order {name} path {path}")
            lines.append(repr(solution.throughput))
            lines.append(repr(solution.schedule.tau0))
            lines.extend(repr(slot) for slot in solution.schedule.slots)
    return "".join(line + "\n" for line in lines)


def pivoted_lines() -> str:
    """Path, pivot count, throughput, tau0 and every slot of ``fixed_order_stm``
    on each battery-rich instance, in every order."""
    lines = []
    for seed in RICH:
        instance = netgen.sample(netgen.config_from_dict({**RICH_GEN, "seed": seed}))
        for order in itertools.permutations(range(1, instance.n_users + 1)):
            result = lp.solve(stm.throughput_lp(instance, order))
            solution = stm.fixed_order_stm(instance, order)
            lines.append(f"seed {seed} order {order} path {result.path} pivots {result.pivots}")
            lines.append(repr(solution.throughput))
            lines.append(repr(solution.schedule.tau0))
            lines.extend(repr(slot) for slot in solution.schedule.slots)
    return "".join(line + "\n" for line in lines)


def oracle_lines() -> str:
    """Config, throughput, scheduled users, tau0 and every slot of
    ``brute_force_stm`` per instance of ``ORACLE``."""
    lines = []
    for gen in ORACLE:
        solution = stm.brute_force_stm(netgen.sample(netgen.config_from_dict(gen)))
        lines.append(json.dumps(gen, sort_keys=True))
        lines.append(repr(solution.throughput))
        lines.append(repr(solution.scheduled_users))
        lines.append(repr(solution.schedule.tau0))
        lines.extend(repr(slot) for slot in solution.schedule.slots)
    return "".join(line + "\n" for line in lines)


def lp_path_lines() -> str:
    """Config, the count of each ``LpSolution.path`` and every order whose LP
    does not certify, with its path and pivots, over all orders of each
    instance of ``ORACLE`` with 6 or 7 users: a change to the certificate
    shows here even on orders that never win."""
    lines = []
    for gen in ORACLE:
        if gen["n_users"] < 6:
            continue
        instance = netgen.sample(netgen.config_from_dict(gen))
        table = stm.lp_coefficients(instance)
        counts = dict.fromkeys(("certified", "repaired", "pivoted"), 0)
        uncertified = []
        for order in itertools.permutations(range(1, instance.n_users + 1)):
            result = lp.solve(stm.throughput_lp(instance, order, table))
            counts[result.path] += 1
            if result.path != "certified":
                uncertified.append(f"order {order} path {result.path} pivots {result.pivots}")
        lines.append(json.dumps(gen, sort_keys=True))
        lines.append(" ".join(f"{path} {count}" for path, count in counts.items()))
        lines.extend(uncertified)
    return "".join(line + "\n" for line in lines)


def sweep_bytes(workdir: pathlib.Path, name: str) -> dict[str, bytes]:
    """The CSV and JSONL that ``sweep`` writes for ``SWEEPS[name]``, by file
    name."""
    spec_path = workdir / f"{name}.json"
    spec_path.write_text(json.dumps(SWEEPS[name]))
    paths = workdir / f"sweep_{name}.csv", workdir / f"sweep_{name}.jsonl"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(paths[0]),
                 "--raw", str(paths[1])]) == 0
    return {path.name: path.read_bytes() for path in paths}


def produce(workdir: pathlib.Path) -> dict[str, bytes]:
    """Every pinned output, by file name under ``data/bytes``."""
    outputs = {}
    config = workdir / "gen.json"
    for name, gen in GENS.items():
        config.write_text(json.dumps(gen))
        out = workdir / name
        assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    instance = workdir / "gen_instance.json"

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for problem, alg in SOLVES:
            assert main(["solve", "--instance", str(instance),
                         "--problem", problem, "--alg", alg]) == 0
    outputs["solve_gen_instance.txt"] = stdout.getvalue().encode()

    for name in SWEEPS:
        outputs.update(sweep_bytes(workdir, name))

    outputs["fixed_order_large.txt"] = fixed_order_lines().encode()
    outputs["fixed_order_pivoted.txt"] = pivoted_lines().encode()
    outputs["oracle_stm.txt"] = oracle_lines().encode()
    outputs["oracle_lp_paths.txt"] = lp_path_lines().encode()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("bytes"))


@pytest.mark.parametrize("name", [
    *GENS, "solve_gen_instance.txt",
    "sweep_hap_power.csv", "sweep_hap_power.jsonl",
    "sweep_n_users.csv", "sweep_n_users.jsonl",
    "sweep_user_power.csv", "sweep_user_power.jsonl",
    "sweep_n_users_unsorted.csv", "sweep_n_users_unsorted.jsonl", "fixed_order_large.txt",
    "fixed_order_pivoted.txt", "oracle_stm.txt", "oracle_lp_paths.txt",
])
def test_output_matches_pinned_bytes(outputs, name):
    assert outputs[name] == (BYTES / name).read_bytes()


def test_every_pinned_file_is_checked(outputs):
    assert sorted(outputs) == sorted(p.name for p in BYTES.iterdir())


def neumaier_sum(terms, start=0):
    """``sum`` of floats as CPython computes it from 3.12 on: Neumaier's
    compensated summation, the compensation added once at the end when it
    is finite and nonzero."""
    total, compensation = float(start), 0.0
    for term in terms:
        t = total + term
        if abs(total) >= abs(term):
            compensation += (total - t) + term
        else:
            compensation += (term - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_stm_throughputs_do_not_follow_the_python_version_of_sum(tmp_path, monkeypatch):
    # The STM throughputs are left folds, so a compensated sum() in stm, as
    # on CPython 3.12 and later, must leave the pinned sweeps as they are.
    monkeypatch.setattr(stm, "sum", neumaier_sum, raising=False)
    for name in SWEEPS:
        for file, data in sweep_bytes(tmp_path, name).items():
            assert data == (BYTES / file).read_bytes(), file


def test_module_entry_point_writes_the_pinned_instance(tmp_path):
    # ``python -m wpcn_sched`` runs the same main as the installed command.
    config, out = tmp_path / "gen.json", tmp_path / "instance.json"
    config.write_text(json.dumps(GEN))
    src = str(pathlib.Path(wpcn_sched.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "wpcn_sched", "gen", "--config", str(config),
                    "--out", str(out)], env=env, check=True)
    assert out.read_bytes() == (BYTES / "gen_instance.json").read_bytes()
