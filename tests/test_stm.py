"""Sum-throughput maximization: heuristic, fixed-order LP, order oracle."""

import json
import pathlib

import numpy as np
import pytest

from wpcn_sched import (
    NetworkInstance,
    Slot,
    SystemParams,
    TooLarge,
    UserProfile,
    brute_force_stm,
    fixed_order_stm,
    harvest_rate,
    mrsa,
    rate,
    validate,
)
from wpcn_sched import lp, stm
from wpcn_sched.lp import LpSolution, LpStatus
from wpcn_sched.model import layout, shortfalls
from wpcn_sched.stm import lp_coefficients, throughput_lp

from helpers import (assert_validate_replay, count_model_calls, exact_vertex_max, random_instance,
                     record_shortfalls)

SATURATING_GAIN = 1e9
GOLDEN_FIXED_ORDER = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_fixed_order.json").read_text())


def single_user_instance(p_max, harvest, battery):
    params = SystemParams(p_h=1.0, p_max=p_max, bandwidth=1e6,
                          noise_density=2.0 ** -20, self_interference=0.0,
                          eh_saturation=harvest)
    user = UserProfile(uplink_gain=1e-3, downlink_gain=SATURATING_GAIN,
                       initial_energy=battery)
    return NetworkInstance(params=params, users=(user,))


# At 6e4 J an ulp of user 2's balance is 7.3e-12 J, more than ENERGY_TOL.
ULP_SHORT = NetworkInstance(
    params=SystemParams(p_h=100.0, p_max=100000.0),
    users=(UserProfile(uplink_gain=1.0, downlink_gain=1.0, initial_energy=100.0),
           UserProfile(uplink_gain=1.0, downlink_gain=0.001, initial_energy=60000.0)))


class TestMrsa:
    def test_battery_rich_user_takes_whole_frame(self):
        instance = single_user_instance(p_max=0.1, harvest=0.001, battery=1.0)
        solution = mrsa(instance)
        assert solution.schedule.tau0 == 0.0
        assert solution.schedule.slots == (Slot(user=1, start=0.0, duration=1.0),)
        assert solution.throughput == rate(instance.params, instance.users[0])
        assert solution.scheduled_users == (1,)

    def test_half_affordable_user(self):
        # empty battery, harvest exactly p_max/2: tau = 0.5, tau0 = 0.5
        instance = single_user_instance(p_max=0.2, harvest=0.1, battery=0.0)
        solution = mrsa(instance)
        assert harvest_rate(instance.params, instance.users[0]) == 0.1
        assert solution.schedule.slots[0].duration == 0.5
        assert solution.schedule.tau0 == 0.5
        assert solution.schedule.slots[0].start == 0.5
        assert solution.throughput == 0.5 * rate(instance.params, instance.users[0])

    def test_exhausted_frame_skips_lower_rate_users(self):
        params = SystemParams(p_h=1.0, p_max=0.1, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0,
                              eh_saturation=0.001)
        fast = UserProfile(uplink_gain=1e-2, downlink_gain=SATURATING_GAIN,
                           initial_energy=1.0)
        slow = UserProfile(uplink_gain=1e-3, downlink_gain=SATURATING_GAIN,
                           initial_energy=1.0)
        instance = NetworkInstance(params=params, users=(slow, fast))
        solution = mrsa(instance)
        assert solution.scheduled_users == (2,)
        assert solution.schedule.slots[0].user == 2
        assert solution.schedule.slots[0].duration == 1.0
        assert solution.throughput == rate(params, fast)

    def test_high_rate_users_sit_at_back_of_frame(self):
        instance = random_instance(seed=11, n_users=5, battery_max=0.02)
        solution = mrsa(instance)
        rates = [rate(instance.params, instance.user(s.user))
                 for s in solution.schedule.slots]
        assert rates == sorted(rates)  # slot order is rate-ascending
        assert validate(instance, solution.schedule).ok

    def test_zero_pattern_in_rate_order(self):
        # once a user gets nothing, every lower-rate user gets nothing
        for seed in range(30):
            instance = random_instance(seed=seed, n_users=5, battery_max=0.05)
            solution = mrsa(instance)
            granted = set(solution.scheduled_users)
            order = sorted(range(1, 6),
                           key=lambda i: (-rate(instance.params, instance.user(i)), i))
            seen_zero = False
            for i in order:
                if i not in granted:
                    seen_zero = True
                else:
                    assert not seen_zero


    def test_a_slot_an_ulp_short_of_its_energy_is_shortened(self):
        # Granted all its energy affords, user 2's slot replayed at
        # -7.3e-12 J. It gives up that ulp to the leading interval instead.
        instance = ULP_SHORT
        solution = mrsa(instance)
        assert validate(instance, solution.schedule).ok
        assert solution.schedule == layout(solution.tau0, solution.pairs)
        assert [user for user, _ in solution.pairs] == [2, 1]
        granted = (60000.0 + harvest_rate(instance.params, instance.users[1])
                   * solution.schedule.slots[0].end) / 100000.0
        assert solution.pairs[0][1] < granted
        assert solution.pairs[0][1] == pytest.approx(granted, rel=1e-15)
        assert solution.throughput == sum(
            duration * rate(instance.params, instance.user(user))
            for user, duration in reversed(solution.pairs))


def throughput_oracle(instance, order):
    """Exact optimum of the order's LP in bits: its constraints with the
    unscaled rates as the objective (the LP's own objective is scaled)."""
    problem = throughput_lp(instance, order)
    rates = [0.0, *(rate(instance.params, instance.users[i - 1]) for i in order)]
    return float(exact_vertex_max(np.array(rates), problem.constraint_matrix, problem.rhs))


class TestFixedOrder:
    def test_battery_rich_single_user(self):
        instance = single_user_instance(p_max=0.1, harvest=0.001, battery=1.0)
        solution = fixed_order_stm(instance, [1])
        r = rate(instance.params, instance.users[0])
        assert abs(solution.schedule.slots[0].duration - 1.0) < 1e-12
        assert abs(solution.throughput - r) < 1e-12 * r

    def test_energy_limited_single_user_gets_harvest_share(self):
        # optimum puts tau0 = 1 - C/p_max and tau1 = C/p_max
        instance = single_user_instance(p_max=0.2, harvest=0.1, battery=0.0)
        solution = fixed_order_stm(instance, [1])
        assert abs(solution.schedule.slots[0].duration - 0.5) < 1e-9
        oracle = throughput_oracle(instance, [1])
        assert abs(solution.throughput - oracle) < 1e-9 * max(1.0, abs(oracle))

    def test_matches_vertex_oracle_on_random_pairs(self):
        for seed in range(40):
            instance = random_instance(seed=seed, n_users=2, battery_max=0.01)
            order = [1, 2] if seed % 2 else [2, 1]
            solution = fixed_order_stm(instance, order)
            oracle = throughput_oracle(instance, order)
            assert abs(solution.throughput - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_rejects_non_permutation(self):
        instance = random_instance(seed=1, n_users=3)
        with pytest.raises(ValueError):
            fixed_order_stm(instance, [1, 2])
        with pytest.raises(ValueError):
            fixed_order_stm(instance, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fixed_order_stm(instance, (2, 3, True))
        numpy_order = np.array([3, 1, 2])   # numpy integers are integers
        assert (fixed_order_stm(instance, numpy_order).throughput
                == fixed_order_stm(instance, [3, 1, 2]).throughput)

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 1, 2], [1, 2], [1.0, 2.0, 3.0],
                                       [True, 2, 3]])
    def test_lp_rejects_non_permutation(self, order):
        instance = random_instance(seed=1, n_users=3)
        with pytest.raises(ValueError):
            throughput_lp(instance, order)
        with pytest.raises(ValueError):
            throughput_lp(instance, order, lp_coefficients(instance))

    # Rates near 7e-12 bits/s, and near 1e301 bits/s (a 1e300 Hz band): each
    # scales by a power of two alone, the largest into [0.5, 1).
    @pytest.mark.parametrize("params, users, objective", [
        (SystemParams(p_h=1.0, p_max=0.01, bandwidth=1e-12, noise_density=1e-20),
         ((1e-3, 0.01), (2e-3, 0.004), (5e-4, 0.02)),
         ["0x0.0p+0", "0x1.d487accd804ffp-2", "0x1.0d328c0e240c3p-1", "0x1.8f2954a3e06bbp-2"]),
        (SystemParams(p_h=1.0, p_max=0.1, bandwidth=1e300, noise_density=0.0),
         ((1.0, 0.0), (1e-12, 0.0), (3e-6, 0.0)),
         ["0x0.0p+0", "0x1.dc3231ecada03p-1", "0x1.2123e62aad7d7p-24", "0x1.7e43c8800759cp-4"]),
    ], ids=["tiny-rates", "huge-rates"])
    def test_scaled_objective_is_pinned(self, params, users, objective):
        instance = NetworkInstance(params, tuple(
            UserProfile(uplink_gain=up, downlink_gain=1e-3, initial_energy=battery)
            for up, battery in users))
        table = lp_coefficients(instance)
        # The throughput folds read the instance's rates: the unscaled ones.
        rates = [rate(params, u) for u in instance.users]
        assert [value.hex() for value in instance.rates] == [value.hex() for value in rates]
        assert [value.hex() for value in table.objective] == objective
        problem = throughput_lp(instance, [3, 1, 2], table)
        assert [value.hex() for value in problem.objective.tolist()] == [
            objective[j] for j in (0, 3, 1, 2)]
        # The throughput is in bits: the slots' left fold over those rates.
        solution = fixed_order_stm(instance, [3, 1, 2], table)
        throughput = 0.0
        for i, tau in solution.pairs:
            throughput += tau * rates[i - 1]
        assert solution.pairs and solution.throughput.hex() == throughput.hex()

    def test_lp_failure_is_surfaced(self, monkeypatch):
        instance = random_instance(seed=2, n_users=2)
        monkeypatch.setattr(stm.lp, "solve",
                            lambda problem: LpSolution(status=LpStatus.UNBOUNDED))
        with pytest.raises(lp.NumericalBreakdown,
                           match="^time-allocation LP came back unbounded$"):
            fixed_order_stm(instance, [1, 2])


def golden_case(case):
    """The case's instance and slot order: index order, or max-rate-first as
    mrsa lays slots out (ascending rate, ties by descending index)."""
    n = case["n_users"]
    instance = random_instance(seed=case["seed"], n_users=n,
                               battery_max=case["battery_max"])
    if case["order"] == "index":
        return instance, list(range(1, n + 1))
    rates = [rate(instance.params, u) for u in instance.users]
    return instance, sorted(range(1, n + 1), key=lambda i: (rates[i - 1], -i))


class TestFixedOrderGolden:
    """Recorded allocations at N=25 and N=100 (tests/data): the simplex's
    pivot path decides every slot, so a change to it shows here."""

    @pytest.mark.parametrize("case", GOLDEN_FIXED_ORDER,
                             ids=lambda c: f"n{c['n_users']}-{c['order']}")
    def test_allocation_matches_golden(self, case):
        instance, order = golden_case(case)
        solution = fixed_order_stm(instance, order)
        assert type(solution.throughput) is float
        assert [s.user for s in solution.schedule.slots] == [u for u, _ in case["slots"]]
        assert solution.schedule.tau0 == pytest.approx(case["tau0"], rel=1e-12)
        assert [s.duration for s in solution.schedule.slots] == pytest.approx(
            [d for _, d in case["slots"]], rel=1e-12)
        assert solution.throughput == pytest.approx(case["throughput"], rel=1e-12)

    @pytest.mark.parametrize("case", [c for c in GOLDEN_FIXED_ORDER
                                      if c["order"] == "max-rate-first"],
                             ids=lambda c: f"n{c['n_users']}")
    def test_max_rate_first_lp_dominates_mrsa(self, case):
        instance, order = golden_case(case)
        solution = fixed_order_stm(instance, order)
        assert solution.throughput >= mrsa(instance).throughput * (1 - 1e-9)
        assert validate(instance, solution.schedule).ok


class TestBruteForce:
    def test_size_cap(self):
        instance = random_instance(seed=3, n_users=9)
        with pytest.raises(TooLarge):
            brute_force_stm(instance)

    def test_closed_forms_are_computed_twice_per_user_per_call(self, monkeypatch):
        # On a fresh instance, lp_coefficients computes each user's rate and
        # harvest rate once, and NetworkInstance.rates and harvest_rates
        # once more. Once lp_coefficients reads the instance's cache
        # (ROADMAP item 4), each count falls to N.
        calls = count_model_calls(monkeypatch, "rate", "harvest_rate")
        brute_force_stm(random_instance(seed=4, n_users=5, battery_max=0.001))
        assert calls == {"rate": 10, "harvest_rate": 10}

    def test_lp_input_rules_run_once_per_call(self, monkeypatch):
        # The rules run when lp_coefficients builds its table; every order's
        # LP is a gather from it.
        runs = []

        def counted(*args):
            runs.append(args)
            return check(*args)

        check = lp._check_inputs
        monkeypatch.setattr(lp, "_check_inputs", counted)
        instance = random_instance(seed=4, n_users=6, battery_max=0.001)
        brute_force_stm(instance)
        assert len(runs) == 1
        for calls in (1, 2):
            fixed_order_stm(instance, [3, 1, 4, 6, 5, 2])
            assert len(runs) == 1 + calls
        table = lp_coefficients(instance)
        fixed_order_stm(instance, [3, 1, 4, 6, 5, 2], table)
        assert len(runs) == 4

    def test_only_the_winner_is_laid_out(self, monkeypatch):
        from wpcn_sched import stm as stm_module
        calls = []

        def counted(tau0, pairs):
            calls.append(pairs)
            return layout(tau0, pairs)

        monkeypatch.setattr(stm_module, "layout", counted)
        solution = brute_force_stm(random_instance(seed=4, n_users=6, battery_max=0.001))
        assert calls == [solution.pairs]   # laid out once, to replay it
        assert solution.schedule is solution.schedule
        assert calls == [solution.pairs]

    def test_a_winner_an_ulp_short_of_its_energy_is_shortened(self):
        # The LP's vertex spends all of user 2's energy and replays an ulp
        # short; the oracle's winner gives that ulp to tau0, as mrsa does.
        instance = ULP_SHORT
        vertex = fixed_order_stm(instance, [2, 1])
        assert not validate(instance, vertex.schedule).ok
        solution = brute_force_stm(instance)
        assert validate(instance, solution.schedule).ok
        assert solution.schedule == layout(solution.tau0, solution.pairs)
        assert [user for user, _ in solution.pairs] == [2, 1]
        assert solution.tau0 > vertex.tau0
        assert solution.throughput == sum(
            duration * rate(instance.params, instance.user(user))
            for user, duration in solution.pairs)
        assert solution.throughput >= mrsa(instance).throughput * (1 - 1e-9)

    def test_only_the_fixed_order_vertex_is_left_short(self):
        # fixed_order_stm returns its LP's vertex unreplayed; both solvers
        # that return a schedule to print replay theirs.
        instance = ULP_SHORT
        assert list(shortfalls(instance, fixed_order_stm(instance, (2, 1)).schedule)) == [2]
        assert shortfalls(instance, brute_force_stm(instance).schedule) == {}
        assert shortfalls(instance, mrsa(instance).schedule) == {}

    @pytest.mark.parametrize("solver", [mrsa, brute_force_stm])
    def test_replay_is_the_balance_validate_checks(self, solver, monkeypatch):
        # _replayed repairs with validate's own replay, so a slot is never
        # left short for validate.
        replayed = record_shortfalls(monkeypatch, stm)
        solver(ULP_SHORT)
        assert [len(short) for _, short in replayed] == [1, 0]   # the deficit, then none
        assert_validate_replay(ULP_SHORT, *replayed[0])

    @pytest.mark.parametrize("grant_order", [False, True])
    def test_a_slot_cut_to_zero_leaves_the_pairs(self, grant_order, monkeypatch):
        # No real deficit is larger than its slot (an ulp short costs an ulp
        # of time), so one is patched in for user 2, once.
        instance = random_instance(seed=1, n_users=3, battery_max=0.02)
        vertex = fixed_order_stm(instance, [1, 2, 3])
        (_, tau1), (_, tau2), (_, tau3) = vertex.pairs
        deficits = [{2: -2.0 * instance.params.p_max * tau2}]
        monkeypatch.setattr(stm, "shortfalls", lambda instance, schedule: (
            deficits.pop() if deficits else shortfalls(instance, schedule)))
        solution = stm._replayed(instance, vertex.tau0, vertex.pairs, grant_order)
        assert deficits == []
        assert solution.pairs == ((1, tau1), (3, tau3))
        assert solution.tau0 == vertex.tau0 + tau2
        assert solution.schedule == layout(solution.tau0, solution.pairs)
        terms = [tau * instance.rates[i - 1] for i, tau in solution.pairs]
        throughput = 0.0
        for term in reversed(terms) if grant_order else terms:
            throughput += term
        assert solution.throughput == throughput

    def test_single_user_equals_fixed_order(self):
        instance = single_user_instance(p_max=0.2, harvest=0.1, battery=0.0)
        assert brute_force_stm(instance) == fixed_order_stm(instance, [1])

    def test_all_battery_rich_gives_frame_to_max_rate(self):
        params = SystemParams(p_h=1.0, p_max=0.1, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0,
                              eh_saturation=0.001)
        users = tuple(UserProfile(uplink_gain=g, downlink_gain=SATURATING_GAIN,
                                  initial_energy=1.0)
                      for g in (1e-4, 5e-3, 1e-3))
        instance = NetworkInstance(params=params, users=users)
        solution = brute_force_stm(instance)
        best = max(rate(params, u) for u in users)
        assert abs(solution.throughput - best) < 1e-9 * best
        assert solution.scheduled_users == (2,)  # only the max-rate user

    def test_tiny_rates_reach_the_heuristic(self):
        # Rates near 7e-12 bits/s: unscaled, every reduced cost lies below
        # lp.FEASIBILITY_TOL and each order's LP stops at x = 0.
        params = SystemParams(p_h=1.0, p_max=0.01, bandwidth=1e-12, noise_density=1e-20)
        users = tuple(UserProfile(uplink_gain=up, downlink_gain=1e-3, initial_energy=battery)
                      for up, battery in ((1e-3, 0.01), (2e-3, 0.004), (5e-4, 0.02)))
        instance = NetworkInstance(params=params, users=users)
        assert brute_force_stm(instance).throughput == 7.095602559409127e-12
        assert mrsa(instance).throughput == 7.095602559409127e-12

    def test_heuristic_never_beats_oracle(self):
        for seed in range(30):
            instance = random_instance(seed=seed, n_users=4,
                                       battery_max=0.01 * (seed % 3))
            heuristic = mrsa(instance)
            exact = brute_force_stm(instance)
            assert heuristic.throughput <= exact.throughput * (1 + 1e-9)

    def test_max_rate_user_always_scheduled(self):
        # any user with battery or harvest forces airtime for the top rate
        for seed in range(30):
            instance = random_instance(seed=100 + seed, n_users=3,
                                       battery_max=0.005)
            solution = brute_force_stm(instance)
            rates = [rate(instance.params, u) for u in instance.users]
            top = 1 + int(np.argmax(rates))
            assert top in solution.scheduled_users


class TestSolutionInvariants:
    def test_frame_budget_and_replay(self):
        for seed in range(40):
            instance = random_instance(seed=seed, n_users=4, battery_max=0.02)
            rng = np.random.default_rng(seed)
            order = list(rng.permutation(4) + 1)
            for solution in (mrsa(instance), fixed_order_stm(instance, order)):
                total = solution.schedule.tau0 + sum(
                    s.duration for s in solution.schedule.slots)
                assert total <= 1.0 + 1e-9
                assert validate(instance, solution.schedule).ok

    def test_throughput_recomputes_from_slots(self):
        for seed in range(40):
            instance = random_instance(seed=seed, n_users=5, battery_max=0.02)
            solution = mrsa(instance)
            again = sum(s.duration * rate(instance.params, instance.user(s.user))
                        for s in solution.schedule.slots)
            assert abs(again - solution.throughput) <= 1e-9 * max(1.0, solution.throughput)

    def test_scheduled_users_match_slots(self):
        for seed in range(20):
            instance = random_instance(seed=seed, n_users=6, battery_max=0.05)
            for solution in (mrsa(instance), brute_force_stm(instance)):
                assert solution.scheduled_users == tuple(
                    sorted(s.user for s in solution.schedule.slots))
                assert all(s.duration > 0 for s in solution.schedule.slots)

    def test_schedule_is_laid_out_once_from_the_pairs(self):
        for seed in range(10):
            instance = random_instance(seed=seed, n_users=4, battery_max=0.02)
            order = [4, 2, 3, 1]
            for solution in (mrsa(instance), fixed_order_stm(instance, order)):
                schedule = solution.schedule
                assert solution.schedule is schedule
                assert schedule == layout(solution.tau0, solution.pairs)
