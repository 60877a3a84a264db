"""Output bytes pinned across versions of the package.

The files under ``data/bytes`` are the exact outputs of ``gen``, ``solve``
and ``sweep`` on the inputs below, plus the ``repr`` of large fixed-order
throughput allocations. Refactors must reproduce them byte for byte; only a
change meant to alter the outputs may rewrite them, and its change log then
says why. They were written on CPython 3.11 with numpy 2.4.
"""

import contextlib
import io
import json
import pathlib

import pytest

from wpcn_sched import lp, model, netgen, stm
from wpcn_sched.cli import main

BYTES = pathlib.Path(__file__).parent / "data" / "bytes"

# Empty batteries make the minimum-length order matter; small ones put the
# throughput oracle where mrsa misses the optimum.
GEN = {"n_users": 5, "seed": 2024, "system": {"p_h": 2.0, "p_max": 0.1},
       "min_distance": 1.0}
SWEEPS = {
    "hap_power": {"axis": "hap_power", "values": [0.5, 2.0, 8.0], "trials": 4,
                  "gen": {**GEN, "seed": 7, "battery_max": 0.001},
                  "problems": ["mls", "stm"], "oracle": True},
    "n_users": {"axis": "n_users", "values": [2, 6, 12], "trials": 5,
                "gen": {**GEN, "seed": 11}, "problems": ["mls", "stm"], "oracle": False},
}
SOLVES = (("mls", "mlsa"), ("mls", "pdo"), ("mls", "opt"), ("stm", "mrsa"), ("stm", "opt"))
# (n_users, seed) of the large fixed-order allocations, drawn like the
# benchmark's: the 50- and 100-user index orders take the repaired LP path.
LARGE = ((25, 0), (50, 0), (100, 0), (100, 3))
LARGE_GEN = {"battery_max": 0.001, "min_distance": 1.0}


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


def produce(workdir: pathlib.Path) -> dict[str, bytes]:
    """Every pinned output, by file name under ``data/bytes``."""
    outputs = {}
    config = workdir / "gen.json"
    config.write_text(json.dumps(GEN))
    instance = workdir / "gen_instance.json"
    assert main(["gen", "--config", str(config), "--out", str(instance)]) == 0
    outputs[instance.name] = instance.read_bytes()

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for problem, alg in SOLVES:
            assert main(["solve", "--instance", str(instance),
                         "--problem", problem, "--alg", alg]) == 0
    outputs["solve_gen_instance.txt"] = stdout.getvalue().encode()

    for name, spec in SWEEPS.items():
        spec_path = workdir / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        csv_path, raw_path = workdir / f"sweep_{name}.csv", workdir / f"sweep_{name}.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(csv_path),
                     "--raw", str(raw_path)]) == 0
        outputs[csv_path.name] = csv_path.read_bytes()
        outputs[raw_path.name] = raw_path.read_bytes()

    outputs["fixed_order_large.txt"] = fixed_order_lines().encode()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("bytes"))


@pytest.mark.parametrize("name", [
    "gen_instance.json", "solve_gen_instance.txt",
    "sweep_hap_power.csv", "sweep_hap_power.jsonl",
    "sweep_n_users.csv", "sweep_n_users.jsonl", "fixed_order_large.txt",
])
def test_output_matches_pinned_bytes(outputs, name):
    assert outputs[name] == (BYTES / name).read_bytes()


def test_every_pinned_file_is_checked(outputs):
    assert sorted(outputs) == sorted(p.name for p in BYTES.iterdir())
