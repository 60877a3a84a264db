"""Closed-form physical-layer math and schedule replay checks."""

import dataclasses
import math

import pytest

from wpcn_sched import (
    Infeasible,
    MalformedSchedule,
    NetworkInstance,
    Schedule,
    Slot,
    SystemParams,
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

    def test_slot_and_schedule_sanity(self):
        with pytest.raises(ValueError):
            Slot(user=0, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            Slot(user=1, start=0.0, duration=-1.0)
        with pytest.raises(ValueError):
            Schedule(tau0=-0.1)
        assert Schedule(tau0=0.5).length == 0.5

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
        params = make_params(noise_density=0.0, self_interference=0.0)
        with pytest.raises(ValueError):
            snr_coefficient(params, make_user())


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

    def test_s_min_no_harvest_infeasible(self):
        params = SystemParams(p_h=1.0, p_max=1.0, bandwidth=1e6,
                              noise_density=2.0 ** -20, self_interference=0.0)
        user = no_harvest_user(demand_bits=100.0, battery=0.0)
        with pytest.raises(Infeasible):
            s_min(params, user)


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

    def test_mlsa_output_always_validates(self):
        for seed in range(25):
            instance = random_instance(seed=seed, n_users=4, battery_max=0.001)
            solution = mlsa(instance)
            assert validate(instance, solution.schedule, check_traffic=True).ok
