"""Seeded random network instances: disc placement, log-distance path loss
with log-normal shadowing, and Rayleigh small-scale fading.

Users are placed uniformly over the area of a disc around the access point.
Each link gets an independent shadowing and fading realization over the
same distance (no reciprocity is assumed between uplink and downlink).
Everything is driven by one 64-bit seed, so instances are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (NetworkInstance, SystemParams, UserProfile, check_object, from_dict,
                    require_finite)

RNG_NAME = "numpy-pcg64"  # np.random.default_rng; pinned by golden tests

MAX_USERS = 100_000  # far above the studied sizes (up to 100); bounds sample's per-user loop

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated child seed for trial ``index`` (splitmix64 finalizer).

    Mixes ``seed XOR (index+1)*golden-ratio`` through the splitmix64
    avalanche so that consecutive indices land far apart in seed space.
    """
    z = (seed ^ ((index + 1) * _GOLDEN)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class GainOutOfRange(ValueError):
    """A drawn link gain is not a positive finite number."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one random network draw.

    ``battery_max`` > 0 gives each user an initial energy uniform on
    [0, battery_max]; the default 0 starts everyone on an empty battery.
    ``fading`` turns Rayleigh fading off for deterministic path-loss tests
    (set ``shadow_sigma_db`` to 0 to also silence shadowing).
    ``min_distance`` > 0 restricts placement to the annulus between it and
    ``radius`` (still area-uniform). The default 0 keeps the full disc, but
    then the path-loss exponent puts an infinite mean on the linear gain:
    Monte Carlo averages of gain-linear quantities never converge, so
    sweeps that report means should stay outside the model's near field by
    setting ``min_distance`` to ``ref_distance``.
    """

    n_users: int
    seed: int
    system: SystemParams = field(default_factory=lambda: SystemParams(p_h=1.0, p_max=0.1))
    radius: float = 10.0          # disc radius [m]
    ref_distance: float = 1.0     # path-loss reference distance [m]
    ref_loss_db: float = 30.0     # path loss at the reference distance [dB]
    path_loss_exp: float = 2.76
    shadow_sigma_db: float = 4.0
    demand_bits: float = UserProfile.demand_bits
    battery_max: float = 0.0      # initial energy ~ U[0, battery_max] [J]
    fading: bool = True
    min_distance: float = 0.0     # inner placement radius [m]

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.n_users > MAX_USERS:
            raise ValueError(f"n_users must be at most {MAX_USERS}, got {self.n_users}")
        if not (self.radius > 0 and self.ref_distance > 0):
            raise ValueError("radius and ref_distance must be positive")
        if self.radius > 1e150:   # radius ** 2 stays finite
            raise ValueError(f"radius must be at most 1e+150 m, got {self.radius!r}")
        if self.shadow_sigma_db < 0 or self.battery_max < 0:
            raise ValueError("shadow_sigma_db and battery_max must be >= 0")
        if not self.demand_bits > 0:
            raise ValueError("demand_bits must be positive")
        if not 0.0 <= self.min_distance < self.radius:
            raise ValueError("min_distance must lie in [0, radius)")


def path_loss_db(distance: float, ref_distance: float = GenConfig.ref_distance,
                 ref_loss_db: float = GenConfig.ref_loss_db,
                 path_loss_exp: float = GenConfig.path_loss_exp,
                 shadow_db: float = 0.0) -> float:
    """Log-distance path loss in dB, plus an optional shadowing term."""
    return (ref_loss_db
            + 10.0 * path_loss_exp * math.log10(distance / ref_distance)
            + shadow_db)


def linear_gain(loss_db: float) -> float:
    """Linear power gain for a path loss in dB."""
    return 10.0 ** (-loss_db / 10.0)


def sample_gain(rng: np.random.Generator, distance: float, config: GenConfig) -> float:
    """One link-gain draw at a fixed distance.

    Shadowing multiplies the mean gain log-normally; Rayleigh fading of the
    amplitude then scales the power by a unit-mean exponential factor.
    Settings that put the gain out of range raise GainOutOfRange.
    """
    # sigma * z is the float rng.normal(0.0, sigma) returns, from the same
    # stream, without its argument handling.
    shadow = (config.shadow_sigma_db * rng.standard_normal()
              if config.shadow_sigma_db > 0 else 0.0)
    try:
        gain = linear_gain(path_loss_db(distance, config.ref_distance, config.ref_loss_db,
                                        config.path_loss_exp, shadow))
    except (OverflowError, ValueError):   # 10 ** x past the largest double; log10(0)
        gain = math.nan
    if config.fading:
        gain *= rng.standard_exponential()
    if not 0.0 < gain < math.inf:
        raise GainOutOfRange(
            f"link gain {gain!r} at {distance!r} m: ref_loss_db {config.ref_loss_db!r}, "
            f"ref_distance {config.ref_distance!r}, path_loss_exp {config.path_loss_exp!r} "
            f"or shadow_sigma_db {config.shadow_sigma_db!r} is out of range")
    return gain


def sample(config: GenConfig) -> NetworkInstance:
    """Draw one network instance; identical configs give identical instances.

    Per user, in stream order: disc position, uplink shadow/fade, downlink
    shadow/fade, battery. Distances are area-uniform (radius * sqrt(u) with
    u drawn in (0, 1], so no user lands exactly on the access point). So
    the users of an n-user draw are the first n of any larger draw with the
    same settings, and ``system`` is never read: it only goes into the
    instance. ``cli.run_sweep`` relies on both.
    """
    rng = np.random.default_rng(config.seed)
    inner = config.min_distance ** 2
    outer = config.radius ** 2
    users = []
    for _ in range(config.n_users):
        distance = math.sqrt(inner + (outer - inner) * (1.0 - rng.random()))
        uplink = sample_gain(rng, distance, config)
        downlink = sample_gain(rng, distance, config)
        # As rng.uniform(0.0, battery_max), like the shadowing draw above.
        battery = config.battery_max * rng.random() if config.battery_max > 0 else 0.0
        users.append(UserProfile(uplink_gain=uplink, downlink_gain=downlink,
                                 initial_energy=battery,
                                 demand_bits=config.demand_bits))
    return NetworkInstance(params=config.system, users=tuple(users))


def config_from_dict(data: dict) -> GenConfig:
    """GenConfig from a JSON object; see :func:`model.check_types` for the type rules."""
    check_object(GenConfig, data)
    if "system" in data:
        data = {**data, "system": from_dict(SystemParams, data["system"])}
    return from_dict(GenConfig, data)
