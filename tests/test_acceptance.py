"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing criterion shows up as a failing test. Monte Carlo trend
sweeps restrict placement to an annulus (min_distance = 1 m): inside the
path-loss reference distance the model's linear gain has an infinite mean
and no 100-trial average converges.
"""

import dataclasses
import json

import numpy as np
import pytest

from wpcn_sched import (
    GenConfig,
    SystemParams,
    brute_force_mls,
    brute_force_stm,
    derive_seed,
    fixed_order_stm,
    mlsa,
    mrsa,
    pdo,
    s_min,
    sample,
    tau_min,
    validate,
)
from wpcn_sched.cli import SweepSpec, main, run_sweep
from wpcn_sched.lp import LpProblem, solve as lp_solve

from helpers import exact_vertex_max


def announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def default_instance(seed: int, n_users: int, **gen_kw):
    config = GenConfig(n_users=n_users, seed=seed,
                       system=SystemParams(p_h=1.0, p_max=0.1), **gen_kw)
    return sample(config)


def test_c1_mlsa_optimality_against_permutation_oracle():
    worst = 0.0
    for trial in range(500):
        instance = default_instance(seed=trial, n_users=2 + trial % 5,
                                    battery_max=0.002 * (trial % 2))
        greedy = mlsa(instance)
        exact = brute_force_mls(instance)
        gap = abs(greedy.length - exact.length) / exact.length
        worst = max(worst, gap)
        assert gap <= 1e-9
    announce("C1 MLSA optimality", f"500 instances N=2..6, max rel gap {worst:.2e}")


def test_c2_duration_and_order_invariants():
    for trial in range(1000):
        instance = default_instance(seed=10_000 + trial, n_users=2 + trial % 7,
                                    battery_max=0.001 * (trial % 3))
        solution = mlsa(instance)
        params = instance.params
        previous = None
        for slot in solution.schedule.slots:
            assert slot.duration == tau_min(params, instance.user(slot.user))
            value = s_min(params, instance.user(slot.user))
            if previous is not None:
                assert value >= previous
            previous = value
    announce("C2 duration/order invariants", "1000 instances, exact durations, sorted starts")


def test_c3_energy_causality_replay():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        n = 2 + trial % 5
        instance = default_instance(seed=20_000 + trial, n_users=n,
                                    battery_max=0.002 * (trial % 2))
        assert validate(instance, mlsa(instance).schedule, check_traffic=True).ok
        assert validate(instance, pdo(instance).schedule, check_traffic=True).ok
        assert validate(instance, mrsa(instance).schedule).ok
        order = list(rng.permutation(n) + 1)
        assert validate(instance, fixed_order_stm(instance, order).schedule).ok
    announce("C3 energy-causality replay", "4 solvers x 1000 instances, all feasible")


def test_c4_pdo_dominance():
    for trial in range(300):
        instance = default_instance(seed=30_000 + trial, n_users=2 + trial % 6)
        assert pdo(instance).length >= mlsa(instance).length * (1 - 1e-12)
    # mean gap at the middle of the default HAP power grid
    gen = GenConfig(n_users=4, seed=42, system=SystemParams(p_h=2.0, p_max=0.1),
                    min_distance=1.0)
    total_gap = 0.0
    for t in range(100):
        instance = sample(dataclasses.replace(gen, seed=derive_seed(gen.seed, t)))
        total_gap += pdo(instance).length - mlsa(instance).length
    assert total_gap / 100 > 0.0
    announce("C4 PDO dominance", f"no violations; mean gap {total_gap / 100:.3e} s at P_h=2")


def test_c5_mrsa_near_optimality():
    ratios = []
    for trial in range(100):
        instance = default_instance(seed=40_000 + trial, n_users=4)
        heuristic = mrsa(instance)
        exact = brute_force_stm(instance)
        assert heuristic.throughput <= exact.throughput * (1 + 1e-9)
        ratios.append(heuristic.throughput / exact.throughput
                      if exact.throughput > 0 else 1.0)
    mean_ratio = sum(ratios) / len(ratios)
    exact_hits = sum(1 for r in ratios if r >= 1 - 1e-6)
    assert mean_ratio >= 0.95
    assert exact_hits > 50
    announce("C5 MRSA near-optimality",
             f"mean ratio {mean_ratio:.6f}, exact on {exact_hits}/100")


def trend_spec(axis, values, gen, problems) -> SweepSpec:
    return SweepSpec(axis=axis, values=tuple(values), trials=100, gen=gen,
                     problems=problems, oracle=False)


def test_c6_trend_shapes():
    # schedule length vs HAP power: users afford the transmit power sooner
    gen = GenConfig(n_users=4, seed=42, system=SystemParams(p_h=1.0, p_max=0.1),
                    min_distance=1.0)
    rows, _ = run_sweep(trend_spec("hap_power", (0.5, 1, 2, 4, 8), gen, ("mls",)))
    lengths = [r["mlsa_length_mean"] for r in rows]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(lengths, lengths[1:]))

    # throughput vs HAP power: rises, then the frame fills and it saturates.
    # Perfect interference cancellation isolates the energy-side mechanism.
    gen = GenConfig(n_users=4, seed=42, radius=2.0, min_distance=1.0,
                    system=SystemParams(p_h=1.0, p_max=0.01, self_interference=0.0))
    rows, _ = run_sweep(trend_spec("hap_power", (0.5, 2, 8, 32, 128, 512),
                                   gen, ("stm",)))
    tput = [r["mrsa_throughput_mean"] for r in rows]
    gains = [b / a - 1 for a, b in zip(tput, tput[1:])]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(tput, tput[1:]))
    assert gains[-1] <= gains[0] / 4

    # throughput vs transmit power: rate gains first, affordability loss after
    gen = GenConfig(n_users=4, seed=42, battery_max=0.1, min_distance=1.0,
                    system=SystemParams(p_h=1.0, p_max=0.1))
    rows, _ = run_sweep(trend_spec("user_power", (0.01, 0.05, 0.1, 0.5, 1.0),
                                   gen, ("stm",)))
    tput = [r["mrsa_throughput_mean"] for r in rows]
    peak = int(np.argmax(tput))
    assert 0 < peak < len(tput) - 1
    assert tput[peak] > tput[0] and tput[peak] > tput[-1]

    # throughput vs user count: close to linear growth
    gen = GenConfig(n_users=4, seed=42, radius=3.0, min_distance=1.0,
                    system=SystemParams(p_h=1.0, p_max=0.1))
    n_values = (2, 4, 6, 8, 10, 15, 20)
    rows, _ = run_sweep(trend_spec("n_users", n_values, gen, ("stm",)))
    tput = [r["mrsa_throughput_mean"] for r in rows]
    correlation = float(np.corrcoef(n_values, tput)[0, 1])
    assert correlation > 0.99
    announce("C6 trend shapes",
             f"length falls with P_h; throughput saturates in P_h, peaks interior "
             f"in P_max, N-correlation {correlation:.4f}")


def test_c7_lp_vertex_oracle_equivalence():
    rng = np.random.default_rng(7777)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m_extra = int(rng.integers(0, 10 - n))  # n + m <= 10 with the box row
        a = np.round(rng.uniform(-1.0, 1.0, size=(m_extra, n)), 3)
        b = np.round(rng.uniform(0.05, 1.5, size=m_extra), 3)
        a = np.vstack([a, np.ones((1, n))])
        b = np.concatenate([b, [2.0]])
        c = np.round(rng.uniform(-1.0, 1.0, size=n), 3)
        problem = LpProblem(objective=c, constraint_matrix=a, rhs=b)
        solution = lp_solve(problem)
        gap = abs(solution.objective_value - float(exact_vertex_max(c, a, b)))
        worst = max(worst, gap)
        assert gap <= 1e-9
    announce("C7 LP correctness",
             f"1000 LPs vs exact vertex enumeration, max gap {worst:.2e}; "
             f"no numerical breakdown in C5's LPs")


def test_c8_sweep_determinism(tmp_path):
    spec = {"axis": "hap_power", "values": [1.0, 4.0], "trials": 25,
            "gen": {"n_users": 3, "seed": 123,
                    "system": {"p_h": 1.0, "p_max": 0.1},
                    "min_distance": 1.0},
            "problems": ["mls", "stm"], "oracle": True}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for name in ("first", "second"):
        csv_path = tmp_path / f"{name}.csv"
        raw_path = tmp_path / f"{name}.jsonl"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(csv_path),
                     "--raw", str(raw_path)]) == 0
        outputs.append((csv_path.read_bytes(), raw_path.read_bytes()))
    assert outputs[0] == outputs[1]
    announce("C8 determinism", "byte-identical CSV and JSONL across runs")
