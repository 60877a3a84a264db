"""Closed-form physical-layer math and schedule replay checks."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest

from wpcn_sched import (
    GenConfig,
    Infeasible,
    MalformedSchedule,
    NetworkInstance,
    RateOverflow,
    Schedule,
    Slot,
    SystemParams,
    TooLarge,
    UserProfile,
    energy_required,
    harvest_curve,
    harvest_rate,
    instance_from_dict,
    instance_to_dict,
    mlsa,
    rate,
    s_min,
    snr_coefficient,
    tau_min,
    validate,
)
from wpcn_sched.model import (
    BRUTE_FORCE_LIMIT,
    TRAFFIC_TOL,
    best_order,
    check_types,
    layout,
    to_dict,
)

from helpers import (
    exact_params,
    exact_user,
    mp_energy_required,
    mp_harvest_rate,
    mp_rate,
    mp_s_min,
    mp_snr_coefficient,
    mp_tau_min,
    no_harvest_user,
    random_instance,
    rel_err,
)

REL_TOL = 1e-12


def make_params(**kw):
    defaults = dict(p_h=1.0, p_max=1.0, bandwidth=1.0, noise_density=0.5,
                    self_interference=0.5)
    defaults.update(kw)
    return SystemParams(**defaults)


def make_user(**kw):
    defaults = dict(uplink_gain=1.0, downlink_gain=1.0)
    defaults.update(kw)
    return UserProfile(**defaults)


class TestTypes:
    def test_params_invariants(self):
        with pytest.raises(ValueError):
            SystemParams(p_h=0.0, p_max=1.0)
        with pytest.raises(ValueError):
            SystemParams(p_h=1.0, p_max=-1.0)
        with pytest.raises(ValueError):
            SystemParams(p_h=1.0, p_max=1.0, bandwidth=0.0)
        with pytest.raises(ValueError):
            SystemParams(p_h=1.0, p_max=1.0, noise_density=-1e-21)
        with pytest.raises(ValueError):
            SystemParams(p_h=1.0, p_max=1.0, eh_slope=0.0)

    def test_user_invariants(self):
        with pytest.raises(ValueError):
            UserProfile(uplink_gain=0.0, downlink_gain=1.0)
        with pytest.raises(ValueError):
            UserProfile(uplink_gain=1.0, downlink_gain=1.0, initial_energy=-1.0)
        with pytest.raises(ValueError):
            UserProfile(uplink_gain=1.0, downlink_gain=1.0, demand_bits=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_float_field_must_be_finite(self, bad):
        for valid in (make_params(),
                      make_user(initial_energy=1.0, eh_slope=99.0, eh_threshold=0.02)):
            for field in dataclasses.fields(valid):
                with pytest.raises(ValueError, match=f"{field.name} must be finite"):
                    dataclasses.replace(valid, **{field.name: bad})

    def test_instance_needs_users(self):
        with pytest.raises(ValueError):
            NetworkInstance(params=make_params(), users=())

    @pytest.mark.parametrize("index", [0, 3])
    def test_user_index_is_one_based(self, index):
        instance = NetworkInstance(params=make_params(), users=(make_user(), make_user()))
        assert instance.user(2) is instance.users[1]
        with pytest.raises(IndexError, match=f"user index {index} out of range 1..2"):
            instance.user(index)

    def test_slot_and_schedule_sanity(self):
        with pytest.raises(ValueError):
            Slot(user=0, start=0.0, duration=1.0)
        for user in (1.5, 1.0, True):
            with pytest.raises(ValueError, match=f"user index must be an integer, got {user}"):
                Slot(user=user, start=0.0, duration=1.0)
        assert Slot(user=np.int64(2), start=0.0, duration=1.0).user == 2
        with pytest.raises(ValueError):
            Slot(user=1, start=0.0, duration=-1.0)
        for start, duration in [(math.nan, 1.0), (0.0, math.inf)]:
            with pytest.raises(ValueError, match="slot times must be finite"):
                Slot(user=1, start=start, duration=duration)
        with pytest.raises(ValueError):
            Schedule(tau0=-0.1)
        assert Schedule(tau0=0.5).length == 0.5

    def test_schedule_from_a_list_holds_a_tuple(self):
        schedule = Schedule(0.0, [Slot(1, 0.0, 1.0)])
        assert schedule.slots == (Slot(1, 0.0, 1.0),)
        assert type(schedule.slots) is tuple
        assert hash(schedule) == hash(Schedule(0.0, (Slot(1, 0.0, 1.0),)))

    def test_instance_json_roundtrip(self):
        instance = random_instance(seed=7, n_users=3, battery_max=0.2)
        again = instance_from_dict(instance_to_dict(instance))
        assert again == instance

    def test_user_json_keeps_eh_overrides(self):
        user = make_user(eh_slope=99.0, eh_threshold=0.02)
        instance = NetworkInstance(params=make_params(), users=(user,))
        again = instance_from_dict(instance_to_dict(instance))
        assert again.users[0].eh_slope == 99.0
        assert again.users[0].eh_threshold == 0.02

    def test_public_names_are_pinned(self):
        import wpcn_sched

        assert sorted(wpcn_sched.__all__) == [
            "FeasibilityReport", "GenConfig", "Infeasible", "LpFailure", "LpProblem",
            "LpSolution", "LpStatus", "MalformedSchedule", "MlsSolution",
            "NetworkInstance", "NumericalBreakdown", "RateOverflow", "Schedule", "Slot",
            "StmSolution", "SystemParams", "TooLarge", "UserProfile", "brute_force_mls",
            "brute_force_stm", "derive_seed", "energy_required", "fixed_order_mls",
            "fixed_order_stm", "harvest_curve", "harvest_rate", "instance_from_dict",
            "instance_to_dict", "linear_gain", "mlsa", "mrsa", "path_loss_db", "pdo",
            "rate", "s_min", "sample", "sample_gain", "snr_coefficient", "solve_lp",
            "tau_min", "validate",
        ]
        assert all(hasattr(wpcn_sched, name) for name in wpcn_sched.__all__)


class TestSnrCoefficient:
    def test_unit_denominator(self):
        # noise power 0.5 plus self-interference 0.5 gives denominator 1
        assert snr_coefficient(make_params(), make_user()) == 1.0

    def test_no_interference_symmetry(self):
        params = make_params(noise_density=0.25, self_interference=0.0)
        user = make_user(uplink_gain=0.25)  # g == noise power
        assert snr_coefficient(params, user) == 1.0

    def test_known_value(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=1e-15, self_interference=1e-7)
        user = make_user(uplink_gain=2e-6)
        expected = 19.80198019801980198  # mpmath: 2e-6 / 1.01e-7
        assert rel_err(snr_coefficient(params, user), mp_snr_coefficient(params, user)) < REL_TOL
        assert abs(snr_coefficient(params, user) - expected) < expected * 1e-12

    def test_zero_denominator_rejected(self):
        # refused when the parameters are built, before any coefficient
        with pytest.raises(ValueError, match="self_interference \\* p_h must be > 0"):
            make_params(noise_density=0.0, self_interference=0.0)

    @pytest.mark.parametrize("kw", [
        dict(noise_density=1e-300, bandwidth=1e-30, self_interference=0.0),
        dict(noise_density=0.0, self_interference=1e-300, p_h=1e-30),
    ], ids=["noise-underflows", "self-interference-underflows"])
    def test_underflowing_denominator_rejected(self, kw):
        with pytest.raises(ValueError, match="self_interference \\* p_h must be > 0"):
            make_params(**kw)


class TestRate:
    def test_snr_one_gives_bandwidth(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        noise_power = params.noise_density * params.bandwidth
        user = make_user(uplink_gain=noise_power)  # k * p_max == 1
        assert rate(params, user) == 1e6

    def test_snr_three_doubles_bandwidth(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        noise_power = params.noise_density * params.bandwidth
        user = make_user(uplink_gain=3.0 * noise_power)  # k * p_max == 3
        assert rate(params, user) == 2e6


class TestHarvestCurve:
    PS, A, B = 0.02337, 150.0, 0.014

    def test_zero_input_zero_output(self):
        assert harvest_curve(0.0, self.PS, self.A, self.B) == 0.0

    def test_saturation_limit(self):
        c = harvest_curve(1e9 * self.B, self.PS, self.A, self.B)
        assert abs(c - self.PS) < 1e-9 * self.PS

    def test_known_value_at_threshold(self):
        # psi = 1/2 at the threshold; mpmath gives 0.010254096635863906...
        c = harvest_curve(self.B, self.PS, self.A, self.B)
        assert abs(c - 0.010254096635863906) < 1e-12 * c

    def test_monotone_and_bounded(self):
        import numpy as np
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0.0, 0.1, size=400))
        values = [harvest_curve(float(x), self.PS, self.A, self.B) for x in xs]
        assert all(0.0 <= v <= self.PS for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_per_user_override_wins(self):
        params = SystemParams(p_h=1.0, p_max=1.0)
        shared = make_user()
        custom = make_user(eh_slope=10.0, eh_threshold=0.5)
        assert harvest_rate(params, shared) != harvest_rate(params, custom)
        assert harvest_rate(params, custom) == harvest_curve(
            1.0, params.eh_saturation, 10.0, 0.5)


class TestPerUserQuantities:
    def test_tau_min_division(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        noise_power = params.noise_density * params.bandwidth
        user = make_user(uplink_gain=3.0 * noise_power, demand_bits=100.0)
        assert tau_min(params, user) == 5e-5  # 100 bits at 2e6 bits/s
        assert energy_required(params, user) == 5e-5

    def test_tau_min_zero_rate_infeasible(self):
        params = make_params(p_h=1e308)   # self-interference swamps the SNR
        user = make_user()
        assert rate(params, user) == 0.0
        with pytest.raises(Infeasible):
            tau_min(params, user)

    def test_tau_min_overflow_infeasible(self):
        params = make_params(bandwidth=1e-300)
        user = make_user(demand_bits=1e300)   # 1e300 bits at ~1.6e-300 bit/s
        assert rate(params, user) > 0.0
        with pytest.raises(Infeasible):
            tau_min(params, user)

    @pytest.mark.parametrize("demand", [1e2, 1e7, 1e8, 1e12, 1e20])
    def test_tau_min_carries_the_demand_on_replay(self, demand):
        # demand / rate can replay an ulp short of the demand, and an ulp of
        # a demand above about 1e7 bits exceeds TRAFFIC_TOL
        params = SystemParams(p_h=1.0, p_max=0.1)
        for k in range(200):
            user = make_user(uplink_gain=1e-6 * (1.0 + k / 7.0), demand_bits=demand)
            r = rate(params, user)
            t = tau_min(params, user)
            assert r * t >= demand - TRAFFIC_TOL
            quotient = demand / r
            if r * quotient >= demand - TRAFFIC_TOL:
                assert t == quotient
            else:
                assert quotient < t <= quotient * (1.0 + 1e-15)

    def test_energy_is_time_times_power(self):
        params = exact_params(p_max=0.1, harvest=2.0)
        user = exact_user(params, tau=1.0, start_min=-1.0)
        assert tau_min(params, user) == 1.0
        assert energy_required(params, user) == 0.1

    def test_s_min_arithmetic(self):
        params = exact_params(p_max=10.0, harvest=2.0)
        # E=10, tau=1, C=2, battery 4 -> (10 - 4 - 2)/2 = 2
        user = exact_user(params, tau=1.0, start_min=2.0)
        assert user.initial_energy == 4.0
        assert s_min(params, user) == 2.0

    def test_s_min_battery_rich_negative(self):
        params = exact_params(p_max=2.0, harvest=1.0)
        # E=2, tau=1, C=1, battery 5 -> (2 - 5 - 1)/1 = -4
        user = UserProfile(uplink_gain=1.0 / params.p_max,
                           downlink_gain=1e9, initial_energy=5.0,
                           demand_bits=params.bandwidth)
        assert s_min(params, user) == -4.0

    def test_s_min_no_harvest_battery_covers(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        user = no_harvest_user(demand_bits=100.0, battery=1.0)
        assert harvest_rate(params, user) == 0.0
        assert s_min(params, user) == -tau_min(params, user)

    def test_s_min_overflow_infeasible(self):
        # A subnormal downlink gain harvests about 4e-321 W: positive, but
        # the start time needed to afford 100 s of transmission overflows.
        params = make_params()
        user = make_user(downlink_gain=1e-320)
        assert 0.0 < harvest_rate(params, user) < 1e-300
        with pytest.raises(Infeasible, match="harvest rate too small"):
            s_min(params, user)

    def test_s_min_no_harvest_infeasible(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        user = no_harvest_user(demand_bits=100.0, battery=0.0)
        with pytest.raises(Infeasible):
            s_min(params, user)


class TestInstanceCache:
    """The per-user closed forms a NetworkInstance keeps are derived data:
    once filled, the instance compares, hashes, prints, serializes, copies
    and pickles as a fresh one does."""

    CACHED = ("rates", "harvest_rates", "tau_mins", "s_mins")

    @staticmethod
    def fresh():
        return random_instance(seed=3, n_users=5, battery_max=0.001)

    def filled(self):
        instance = self.fresh()
        for name in self.CACHED:
            getattr(instance, name)
        return instance

    def test_value_semantics_ignore_the_cache(self):
        filled, fresh = self.filled(), self.fresh()
        assert set(self.CACHED) <= vars(filled).keys()
        assert filled == fresh
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert (json.dumps(instance_to_dict(filled)).encode()
                == json.dumps(instance_to_dict(fresh)).encode())

    def test_replace_starts_an_empty_cache(self):
        filled = self.filled()
        assert not set(self.CACHED) & vars(dataclasses.replace(filled)).keys()
        fewer = dataclasses.replace(filled, users=filled.users[:2])
        assert fewer.rates == tuple(rate(fewer.params, u) for u in fewer.users)
        assert len(fewer.s_mins) == 2

    @pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)),
                                            copy.deepcopy])
    def test_round_trip(self, round_trip):
        filled, fresh = self.filled(), self.fresh()
        copied = round_trip(filled)
        assert copied == fresh and hash(copied) == hash(fresh) and repr(copied) == repr(fresh)
        for name in self.CACHED:
            assert getattr(copied, name) == getattr(fresh, name)

    def test_a_failed_read_keeps_nothing(self):
        instance = NetworkInstance(params=SystemParams(p_h=1.0, p_max=0.1),
                                   users=(make_user(), make_user(uplink_gain=1e308)))
        for _ in range(2):
            with pytest.raises(RateOverflow):
                instance.rates
        assert "rates" not in vars(instance)


class TestSharedHelpers:
    """The order search, slot layout and JSON type check shared by the solvers."""

    def instance(self, n):
        return NetworkInstance(params=make_params(), users=(make_user(),) * n)

    def test_best_order_breaks_ties_toward_smallest_order(self):
        assert best_order(self.instance(3), lambda _, order: order, lambda _: 0.0) == (1, 2, 3)
        assert best_order(self.instance(3), lambda _, order: order,
                          lambda order: order[0]) == (3, 1, 2)

    def test_best_order_solves_every_order_once(self):
        seen = []
        best_order(self.instance(4), lambda _, order: seen.append(order), lambda _: 0.0)
        assert sorted(seen) == sorted(itertools.permutations(range(1, 5)))
        assert len(set(seen)) == 24

    def test_best_order_size_limit(self):
        with pytest.raises(TooLarge):
            best_order(self.instance(BRUTE_FORCE_LIMIT + 1), lambda *_: pytest.fail(),
                       lambda _: 0.0)

    def test_layout_packs_back_to_back_and_keeps_zero_durations(self):
        schedule = layout(0.5, [(2, 0.25), (3, 0.0), (1, 1.0)])
        assert schedule == Schedule(tau0=0.5, slots=(
            Slot(2, 0.5, 0.25), Slot(3, 0.75, 0.0), Slot(1, 0.75, 1.0)))
        assert schedule.length == 1.75
        assert layout(0.5, []) == Schedule(tau0=0.5)

    @pytest.mark.parametrize("cls, data, message", [
        (UserProfile, {"uplink_gain": True}, "uplink_gain must be a number, got True"),
        (UserProfile, {"demand_bits": "5"}, "demand_bits must be a number, got '5'"),
        (UserProfile, {"eh_slope": False}, "eh_slope must be a number, got False"),
        (GenConfig, {"seed": 1.0}, "seed must be an integer, got 1.0"),
        (GenConfig, {"n_users": False}, "n_users must be an integer, got False"),
        (GenConfig, {"fading": 1}, "fading must be true or false, got 1"),
        # the least integers that float() cannot convert
        (UserProfile, {"initial_energy": 2 ** 1024 - 2 ** 970},
         f"initial_energy must be a number, got {2 ** 1024 - 2 ** 970}"),
        (GenConfig, {"radius": -(2 ** 1024 - 2 ** 970)},
         f"radius must be a number, got {-(2 ** 1024 - 2 ** 970)}"),
    ])
    def test_check_types_rejects(self, cls, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_types(cls, data)

    @pytest.mark.parametrize("cls, data", [
        (UserProfile, {"uplink_gain": 1, "downlink_gain": 0.5, "eh_slope": None}),
        (GenConfig, {"n_users": 3, "seed": 0, "fading": False, "system": "unchecked"}),
        (GenConfig, {"unknown": True}),
        # the largest integer that float() rounds to the largest double
        (UserProfile, {"initial_energy": 2 ** 1024 - 2 ** 970 - 1}),
    ])
    def test_check_types_accepts(self, cls, data):
        check_types(cls, data)

    def test_to_dict_follows_field_order_and_drops_none_overrides(self):
        user = make_user(eh_threshold=0.5)
        assert list(to_dict(user)) == ["uplink_gain", "downlink_gain", "initial_energy",
                                       "demand_bits", "eh_threshold"]
        config = GenConfig(n_users=2, seed=1)
        assert list(to_dict(config)) == [f.name for f in dataclasses.fields(GenConfig)]
        assert to_dict(config)["system"] == dataclasses.asdict(config.system)


class TestOracleAgreement:
    """Every closed form matches a 60-digit recomputation to 1e-12 relative."""

    def test_random_instances(self):
        import numpy as np
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            instance = random_instance(seed=trial, n_users=1,
                                       p_h=float(rng.uniform(0.1, 10.0)),
                                       p_max=float(rng.uniform(0.01, 1.0)),
                                       battery_max=float(rng.uniform(0.0, 0.01)))
            params, user = instance.params, instance.users[0]
            assert rel_err(snr_coefficient(params, user), mp_snr_coefficient(params, user)) < REL_TOL
            assert rel_err(rate(params, user), mp_rate(params, user)) < REL_TOL
            assert rel_err(harvest_rate(params, user), mp_harvest_rate(params, user)) < REL_TOL
            assert rel_err(tau_min(params, user), mp_tau_min(params, user)) < REL_TOL
            assert rel_err(energy_required(params, user), mp_energy_required(params, user)) < REL_TOL
            assert rel_err(s_min(params, user), mp_s_min(params, user)) < REL_TOL


class TestValidate:
    def setup_method(self):
        self.params = exact_params(p_max=10.0, harvest=2.0)
        self.ready = exact_user(self.params, tau=1.0, start_min=-1.0)  # battery 10+
        self.late = exact_user(self.params, tau=1.0, start_min=2.0)

    def test_single_user_ok(self):
        instance = NetworkInstance(params=self.params, users=(self.ready,))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=1, start=0.0, duration=1.0),))
        report = validate(instance, schedule, check_traffic=True)
        assert report.ok
        assert report.energy_ok == {1: True}
        assert report.traffic_ok == {1: True}
        assert report.length == 1.0
        assert report.throughput == self.ready.demand_bits

    def test_too_early_start_violates_energy(self):
        instance = NetworkInstance(params=self.params, users=(self.late,))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=1, start=0.0, duration=1.0),))
        report = validate(instance, schedule, check_traffic=True)
        assert report.energy_ok == {1: False}
        assert not report.ok

    def test_start_at_s_min_is_tight_but_ok(self):
        instance = NetworkInstance(params=self.params, users=(self.late,))
        schedule = Schedule(tau0=2.0, slots=(Slot(user=1, start=2.0, duration=1.0),))
        assert validate(instance, schedule, check_traffic=True).ok

    def test_missing_user_fails_traffic_only(self):
        instance = NetworkInstance(params=self.params, users=(self.ready, self.late))
        schedule = Schedule(tau0=2.0, slots=(Slot(user=2, start=2.0, duration=1.0),))
        report = validate(instance, schedule, check_traffic=True)
        assert report.energy_ok == {1: True, 2: True}
        assert report.traffic_ok == {1: False, 2: True}
        report = validate(instance, schedule, check_traffic=False)
        assert report.ok
        assert report.traffic_ok == {}

    def test_short_slot_fails_traffic(self):
        instance = NetworkInstance(params=self.params, users=(self.ready,))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=1, start=0.0, duration=0.5),))
        report = validate(instance, schedule, check_traffic=True)
        assert report.traffic_ok == {1: False}

    def test_malformed_duplicate(self):
        instance = NetworkInstance(params=self.params, users=(self.ready,))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=1, start=0.0, duration=1.0),
                                             Slot(user=1, start=1.0, duration=1.0)))
        with pytest.raises(MalformedSchedule):
            validate(instance, schedule)

    def test_malformed_gap(self):
        instance = NetworkInstance(params=self.params, users=(self.ready, self.late))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=1, start=0.0, duration=1.0),
                                             Slot(user=2, start=3.0, duration=1.0)))
        with pytest.raises(MalformedSchedule):
            validate(instance, schedule)

    def test_malformed_first_slot_not_at_tau0(self):
        instance = NetworkInstance(params=self.params, users=(self.ready,))
        schedule = Schedule(tau0=1.0, slots=(Slot(user=1, start=0.0, duration=1.0),))
        with pytest.raises(MalformedSchedule):
            validate(instance, schedule)

    def test_malformed_unknown_user(self):
        instance = NetworkInstance(params=self.params, users=(self.ready,))
        schedule = Schedule(tau0=0.0, slots=(Slot(user=5, start=0.0, duration=1.0),))
        with pytest.raises(MalformedSchedule):
            validate(instance, schedule)

    def test_malformed_non_integer_user(self):
        # 1.5 lies between two users but is neither: its slot would go
        # unchecked. Slot rejects it, so it is set past the constructor.
        instance = NetworkInstance(params=self.params, users=(self.ready, self.late))
        bad = Slot(user=1, start=0.0, duration=0.9)
        object.__setattr__(bad, "user", 1.5)
        schedule = Schedule(tau0=0.0, slots=(bad, Slot(user=2, start=0.9, duration=0.1)))
        with pytest.raises(MalformedSchedule, match="unknown user 1.5"):
            validate(instance, schedule)

    def test_mlsa_output_always_validates(self):
        for seed in range(25):
            instance = random_instance(seed=seed, n_users=4, battery_max=0.001)
            solution = mlsa(instance)
            assert validate(instance, solution.schedule, check_traffic=True).ok
