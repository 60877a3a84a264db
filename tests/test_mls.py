"""Minimum-length scheduling: worked examples, invariants, permutation oracle."""

import pytest

from wpcn_sched import (
    GenConfig,
    Infeasible,
    NetworkInstance,
    SystemParams,
    TooLarge,
    brute_force_mls,
    fixed_order_mls,
    mlsa,
    pdo,
    s_min,
    sample,
    tau_min,
    validate,
)

from wpcn_sched import mls
from wpcn_sched.model import layout

from helpers import (assert_validate_replay, exact_params, exact_user, no_harvest_user,
                     random_instance, record_shortfalls)


@pytest.fixture
def two_user_instance():
    """User 1 ready at t=2, user 2 at t=1; both need exactly 1 s of air time."""
    params = exact_params(p_max=10.0, harvest=2.0)
    return NetworkInstance(params=params, users=(
        exact_user(params, tau=1.0, start_min=2.0),
        exact_user(params, tau=1.0, start_min=1.0),
    ))


class TestWorkedExample:
    def test_mlsa_orders_by_start_time(self, two_user_instance):
        solution = mlsa(two_user_instance)
        assert [s.user for s in solution.schedule.slots] == [2, 1]
        assert solution.schedule.tau0 == 1.0
        assert solution.length == 3.0
        # user 1 starts exactly at its minimum start time, no extra wait
        assert solution.schedule.slots[1].start == 2.0
        assert [s.duration for s in solution.schedule.slots] == [1.0, 1.0]

    def test_reversed_order_is_longer(self, two_user_instance):
        solution = fixed_order_mls(two_user_instance, [1, 2])
        assert solution.schedule.tau0 == 2.0
        assert solution.length == 4.0
        assert [s.start for s in solution.schedule.slots] == [2.0, 3.0]

    def test_pdo_uses_index_order(self, two_user_instance):
        assert pdo(two_user_instance).length == 4.0

    def test_brute_force_agrees(self, two_user_instance):
        solution = brute_force_mls(two_user_instance)
        assert solution.length == 3.0
        assert [s.user for s in solution.schedule.slots] == [2, 1]

    def test_schedule_replays_clean(self, two_user_instance):
        for sol in (mlsa(two_user_instance), pdo(two_user_instance)):
            assert validate(two_user_instance, sol.schedule, check_traffic=True).ok


class TestFixedOrder:
    def test_single_user_any_order(self):
        params = exact_params()
        instance = NetworkInstance(params=params,
                                   users=(exact_user(params, tau=1.0, start_min=2.0),))
        assert fixed_order_mls(instance, [1]) == mlsa(instance)

    def test_battery_rich_user_starts_at_zero(self):
        params = exact_params()
        instance = NetworkInstance(params=params,
                                   users=(exact_user(params, tau=1.0, start_min=-1.0),))
        solution = mlsa(instance)
        assert solution.schedule.tau0 == 0.0
        assert solution.schedule.slots[0].start == 0.0
        assert solution.length == 1.0

    def test_sorted_order_matches_mlsa(self):
        instance = random_instance(seed=5, n_users=5)
        params = instance.params
        order = sorted(range(1, 6), key=lambda i: (s_min(params, instance.user(i)), i))
        assert fixed_order_mls(instance, order).length == mlsa(instance).length

    def test_rejects_non_permutation(self):
        instance = random_instance(seed=1, n_users=3)
        with pytest.raises(ValueError):
            fixed_order_mls(instance, [1, 2])
        with pytest.raises(ValueError):
            fixed_order_mls(instance, [1, 2, 2])
        with pytest.raises(ValueError):
            fixed_order_mls(instance, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fixed_order_mls(instance, (True, 2, 3))

    def test_matches_per_slot_wait_replay(self):
        # independent derivation: walk the order inserting waits user by user
        # instead of front-loading them into tau0
        import numpy as np
        for seed in range(200):
            instance = random_instance(seed=seed, n_users=2 + seed % 6,
                                       battery_max=0.003 * (seed % 3))
            order = list(np.random.default_rng(seed).permutation(instance.n_users) + 1)
            solution = fixed_order_mls(instance, order)
            t = 0.0
            for i in order:
                user = instance.user(i)
                t = max(t, s_min(instance.params, user)) + tau_min(instance.params, user)
            assert abs(t - solution.length) <= 1e-12 * max(1.0, abs(t))


class TestBruteForce:
    def test_size_cap(self):
        instance = random_instance(seed=3, n_users=9)
        with pytest.raises(TooLarge):
            brute_force_mls(instance)

    def test_matches_mlsa_on_random_instances(self):
        for seed in range(40):
            instance = random_instance(seed=seed, n_users=2 + seed % 5,
                                       battery_max=0.001)
            exact = brute_force_mls(instance)
            greedy = mlsa(instance)
            assert abs(greedy.length - exact.length) <= 1e-9 * exact.length


class TestInfeasible:
    def test_no_harvest_empty_battery_aborts(self):
        params = exact_params()
        instance = NetworkInstance(params=params, users=(
            exact_user(params, tau=1.0, start_min=0.0),
            no_harvest_user(demand_bits=100.0, battery=0.0),
        ))
        for solver in (mlsa, pdo, brute_force_mls):
            with pytest.raises(Infeasible):
                solver(instance)

    def test_no_harvest_with_battery_schedules(self):
        params = exact_params(p_max=10.0)
        covered = no_harvest_user(demand_bits=100.0, battery=20.0)
        instance = NetworkInstance(params=params, users=(covered,))
        solution = mlsa(instance)
        assert solution.schedule.tau0 == 0.0
        assert solution.length == tau_min(params, covered)
        assert validate(instance, solution.schedule, check_traffic=True).ok


class TestInvariants:
    def test_durations_and_order(self):
        for seed in range(100):
            instance = random_instance(seed=1000 + seed, n_users=2 + seed % 7,
                                       battery_max=0.002)
            solution = mlsa(instance)
            params = instance.params
            starts_min = [s_min(params, u) for u in instance.users]
            previous = None
            for slot in solution.schedule.slots:
                # durations are the exact minimum transmission times
                assert slot.duration == tau_min(params, instance.user(slot.user))
                value = starts_min[slot.user - 1]
                if previous is not None:
                    assert value >= previous
                previous = value
                assert slot.start >= value - 1e-9

    def test_length_recomputes_from_slots(self):
        for seed in range(50):
            instance = random_instance(seed=seed, n_users=4)
            solution = mlsa(instance)
            total = solution.schedule.tau0 + sum(s.duration for s in solution.schedule.slots)
            assert abs(total - solution.length) <= 1e-12 * max(1.0, solution.length)

    def test_pdo_never_beats_mlsa(self):
        for seed in range(100):
            instance = random_instance(seed=2000 + seed, n_users=2 + seed % 6)
            assert pdo(instance).length >= mlsa(instance).length * (1 - 1e-12)

    def test_every_user_scheduled_once(self):
        instance = random_instance(seed=77, n_users=8)
        solution = mlsa(instance)
        assert sorted(s.user for s in solution.schedule.slots) == list(range(1, 9))


class TestRoundOff:
    # Trial 46 of a hap_power 4, demand 1e7 sweep (seed 3): at the start
    # derived from s_min, user 2's balance replays to -1.8e-12 J, one ulp
    # of its 9539.5 J and below -ENERGY_TOL.
    instance = sample(GenConfig(n_users=6, seed=1535405053594379346,
                                system=SystemParams(p_h=4.0, p_max=0.1),
                                demand_bits=1e7, min_distance=1.0))

    def test_late_start_absorbs_an_energy_ulp(self):
        # The frame starts later.
        instance = self.instance
        params = instance.params
        solution = mlsa(instance)
        assert validate(instance, solution.schedule, check_traffic=True).ok
        pairs = [(slot.user, slot.duration) for slot in solution.schedule.slots]
        tau0 = elapsed = 0.0
        for i, duration in pairs:
            tau0 = max(tau0, s_min(params, instance.user(i)) - elapsed)
            elapsed += duration
        assert not validate(instance, layout(tau0, pairs)).ok
        assert tau0 < solution.schedule.tau0 <= tau0 * (1.0 + 1e-15)

    def test_replay_is_the_balance_validate_checks(self, monkeypatch):
        # fixed_order_mls repairs with validate's own replay, so the frame
        # cannot start too early for validate.
        replayed = record_shortfalls(monkeypatch, mls)
        mlsa(self.instance)
        assert [len(short) for _, short in replayed] == [1, 0]   # the deficit, then none
        assert_validate_replay(self.instance, *replayed[0])
