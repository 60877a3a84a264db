"""Random network generator: path loss values, distributions, determinism."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from wpcn_sched import GenConfig, SystemParams, derive_seed, linear_gain, path_loss_db, sample
from wpcn_sched.model import to_dict
from wpcn_sched.netgen import RNG_NAME, GainOutOfRange, config_from_dict, sample_gain

from helpers import reference_sample

SHADOW_MEAN_FACTOR_4DB = 1.5282936457798482  # E[10^(-Z/10)], Z ~ N(0, 4 dB)


def base_config(**kw):
    defaults = dict(n_users=4, seed=1234,
                    system=SystemParams(p_h=1.0, p_max=0.1))
    defaults.update(kw)
    return GenConfig(**defaults)


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0) == 30.0
        assert linear_gain(30.0) == 1e-3

    def test_ten_meters(self):
        # 30 + 10 * 2.76 * log10(10) = 57.6 dB
        loss = path_loss_db(10.0)
        assert abs(loss - 57.6) < 1e-12
        assert abs(linear_gain(loss) - 1.7378008287493755e-6) < 1e-12 * 1.7e-6

    def test_shadow_term_adds(self):
        assert path_loss_db(1.0, shadow_db=4.0) == 34.0


class TestDeterminism:
    def test_same_seed_same_instance(self):
        config = base_config()
        assert sample(config) == sample(config)

    def test_different_seed_different_instance(self):
        assert sample(base_config(seed=1)) != sample(base_config(seed=2))

    def test_rng_name_is_pinned(self):
        assert RNG_NAME == "numpy-pcg64"

    def test_golden_first_user(self):
        # pins the generator and draw order; regenerate if either changes
        instance = sample(base_config(seed=20240611))
        user = instance.users[0]
        assert user.uplink_gain == 1.7756081790667512e-06
        assert user.downlink_gain == 2.6806658264123467e-05


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            base_config(n_users=0)
        with pytest.raises(ValueError):
            base_config(radius=0.0)
        with pytest.raises(ValueError):
            base_config(battery_max=-1.0)
        with pytest.raises(ValueError):
            base_config(min_distance=10.0)  # must be < radius
        with pytest.raises(ValueError, match="demand_bits must be positive"):
            base_config(demand_bits=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_float_field_must_be_finite(self, bad):
        valid = base_config()
        floats = [f.name for f in dataclasses.fields(valid)
                  if isinstance(getattr(valid, f.name), float)]
        assert "radius" in floats and "battery_max" in floats
        for name in floats:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                dataclasses.replace(valid, **{name: bad})

    def test_roundtrip(self):
        config = base_config(battery_max=0.5, fading=False, min_distance=1.0)
        assert config_from_dict(to_dict(config)) == config

    def test_demand_and_battery_propagate(self):
        config = base_config(demand_bits=1e4, battery_max=0.25, n_users=50)
        instance = sample(config)
        assert all(u.demand_bits == 1e4 for u in instance.users)
        assert all(0.0 <= u.initial_energy <= 0.25 for u in instance.users)
        assert any(u.initial_energy > 0.0 for u in instance.users)

    def test_zero_battery_by_default(self):
        instance = sample(base_config(n_users=10))
        assert all(u.initial_energy == 0.0 for u in instance.users)


def recover_distance(gain: float, config: GenConfig) -> float:
    """Invert the deterministic path-loss map (valid without shadow/fading)."""
    loss = -10.0 * math.log10(gain)
    return config.ref_distance * 10.0 ** (
        (loss - config.ref_loss_db) / (10.0 * config.path_loss_exp))


class TestDistributions:
    def test_distance_squared_is_uniform(self):
        # disable randomness in the gain so distance can be recovered exactly
        config = base_config(n_users=100_000, shadow_sigma_db=0.0, fading=False)
        instance = sample(config)
        d2 = np.array([recover_distance(u.uplink_gain, config) ** 2
                       for u in instance.users])
        assert d2.min() > 0.0
        assert d2.max() <= config.radius ** 2 + 1e-9
        ecdf = np.arange(1, d2.size + 1) / d2.size
        ks = np.max(np.abs(np.sort(d2) / config.radius ** 2 - ecdf))
        assert ks < 0.02

    def test_annulus_placement(self):
        config = base_config(n_users=20_000, shadow_sigma_db=0.0, fading=False,
                             min_distance=4.0)
        distances = np.array([recover_distance(u.uplink_gain, config)
                              for u in sample(config).users])
        assert distances.min() > 4.0 - 1e-9
        # d^2 uniform on [16, 100]
        mid = np.mean(distances ** 2)
        assert abs(mid - 58.0) < 1.0

    def test_mean_gain_matches_lognormal_adjustment(self):
        # at fixed distance, E[gain] = pathloss gain * shadow factor * E[fade]
        config = base_config()
        rng = np.random.default_rng(99)
        draws = np.array([sample_gain(rng, 5.0, config) for _ in range(100_000)])
        expected = linear_gain(path_loss_db(5.0)) * SHADOW_MEAN_FACTOR_4DB
        assert abs(draws.mean() - expected) < 0.05 * expected

    def test_uplink_downlink_independent(self):
        config = base_config(n_users=5_000)
        instance = sample(config)
        up = np.log([u.uplink_gain for u in instance.users])
        down = np.log([u.downlink_gain for u in instance.users])
        assert abs(np.corrcoef(up, down)[0, 1]) < 0.9  # shared distance only

    def test_fading_hook_disables_exponential_factor(self):
        config = base_config(n_users=1000, shadow_sigma_db=0.0, fading=False)
        instance = sample(config)
        # without fading and shadowing, gains depend on distance alone and
        # both directions coincide
        for user in instance.users:
            assert user.uplink_gain == user.downlink_gain


# JSON ints as well as floats, zeros that skip a draw, and shadowing wide
# enough that a gain leaves the range of a double.
gen_configs = st.builds(
    GenConfig,
    n_users=st.integers(1, 5),
    seed=st.integers(0, 2 ** 64),
    radius=st.floats(1.5, 100.0),
    path_loss_exp=st.floats(2.0, 4.0),
    shadow_sigma_db=st.one_of(st.just(0.0), st.integers(0, 12), st.floats(0.0, 20.0),
                              st.sampled_from([400.0, 1e300])),
    battery_max=st.one_of(st.just(0.0), st.integers(0, 2), st.floats(0.0, 1e-2),
                          st.just(1e300)),
    fading=st.booleans(),
    min_distance=st.sampled_from([0.0, 1.0]),
)


@given(gen_configs)
def test_draws_match_numpys_general_calls(config):
    # sample draws sigma * standard_normal() and battery_max * random():
    # the stream and the floats of rng.normal(0.0, sigma) and
    # rng.uniform(0.0, battery_max).
    try:
        instance = sample(config)
    except GainOutOfRange:
        event("gain out of range")
        instance = None
    reference = reference_sample(config)
    if instance is None or reference is None:
        assert instance is reference is None
        return
    assert [[repr(getattr(user, name)) for name in user.__dataclass_fields__]
            for user in instance.users] == \
        [[repr(getattr(user, name)) for name in user.__dataclass_fields__]
         for user in reference.users]


@given(gen_configs, st.integers(0, 4), st.floats(0.1, 10.0))
def test_a_draw_is_a_prefix_of_any_larger_one(config, extra, p_h):
    # cli.run_sweep draws each trial's users once, at its widest point, and
    # lays each point's own system over the first n_users of them.
    def users(config):
        try:
            return sample(config).users
        except GainOutOfRange as exc:
            event("gain out of range")
            return str(exc)
    larger = users(dataclasses.replace(config, n_users=config.n_users + extra,
                                       system=SystemParams(p_h=p_h, p_max=0.5)))
    smaller = users(config)
    if isinstance(larger, tuple):
        assert smaller == larger[:config.n_users]
    elif isinstance(smaller, str):   # the same user fails first
        assert smaller == larger


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, k) for k in range(1000)]
        assert seeds == [derive_seed(42, k) for k in range(1000)]
        assert len(set(seeds)) == 1000
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_distinct_base_seeds_decorrelate(self):
        a = {derive_seed(1, k) for k in range(100)}
        b = {derive_seed(2, k) for k in range(100)}
        assert not a & b
