"""Shared test fixtures: exact hand-built instances and independent oracles.

The oracles deliberately do not share code with the package: closed forms
are recomputed with mpmath at 60 digits, and LP optima come from exhaustive
vertex enumeration.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np

from wpcn_sched import GenConfig, NetworkInstance, SystemParams, UserProfile, sample
from wpcn_sched.lp import FEASIBILITY_TOL

# -- exact hand-built instances ----------------------------------------------
# With bandwidth 2^20 Hz, noise density 2^-20 W/Hz and no self-interference,
# the noise power is exactly 1 W; uplink gain 1/p_max then gives rate == W
# exactly, so demand D*W bits needs exactly D seconds. A huge downlink gain
# saturates the harvester, making the harvest rate exactly eh_saturation.

EXACT_BANDWIDTH = 2.0 ** 20
SATURATING_GAIN = 1e9


def exact_params(p_max: float = 10.0, harvest: float = 2.0) -> SystemParams:
    return SystemParams(p_h=1.0, p_max=p_max, bandwidth=EXACT_BANDWIDTH,
                        noise_density=2.0 ** -20, self_interference=0.0,
                        eh_saturation=harvest)


def exact_user(params: SystemParams, tau: float, start_min: float) -> UserProfile:
    """User with tau_min == tau and s_min == start_min, exactly.

    Works back from s_min = (E - B - tau*C)/C with C = eh_saturation and
    E = tau * p_max; requires a nonnegative battery, i.e.
    start_min <= E/C - tau.
    """
    c = params.eh_saturation
    energy = tau * params.p_max
    battery = energy - c * (start_min + tau)
    if battery < 0:
        raise ValueError("requested start_min needs a negative battery")
    return UserProfile(uplink_gain=1.0 / params.p_max,
                       downlink_gain=SATURATING_GAIN,
                       initial_energy=battery,
                       demand_bits=tau * params.bandwidth)


def no_harvest_user(demand_bits: float = 100.0, battery: float = 0.0) -> UserProfile:
    """User whose harvest rate is exactly zero.

    An eh_slope of the smallest positive double makes slope * input (with
    input 0.25 W) underflow to 0.0, so -expm1(-0.0) and hence the curve
    output are exactly zero.
    """
    return UserProfile(uplink_gain=1.0, downlink_gain=0.25,
                       initial_energy=battery, demand_bits=demand_bits,
                       eh_slope=5e-324)


def random_instance(seed: int, n_users: int = 4, p_h: float = 1.0,
                    p_max: float = 0.1, battery_max: float = 0.0) -> NetworkInstance:
    config = GenConfig(n_users=n_users, seed=seed,
                       system=SystemParams(p_h=p_h, p_max=p_max),
                       battery_max=battery_max)
    return sample(config)


# -- arbitrary-precision recomputation oracle --------------------------------

_DPS = 60


def mp_snr_coefficient(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        denom = (mp.mpf(params.noise_density) * mp.mpf(params.bandwidth)
                 + mp.mpf(params.self_interference) * mp.mpf(params.p_h))
        return mp.mpf(user.uplink_gain) / denom


def mp_rate(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        k = mp_snr_coefficient(params, user)
        return mp.mpf(params.bandwidth) * mp.log(1 + k * mp.mpf(params.p_max), 2)


def mp_harvest_rate(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        slope = mp.mpf(params.eh_slope if user.eh_slope is None else user.eh_slope)
        threshold = mp.mpf(params.eh_threshold if user.eh_threshold is None
                           else user.eh_threshold)
        x = mp.mpf(user.downlink_gain) * mp.mpf(params.p_h)
        psi = 1 / (1 + mp.e ** (-slope * (x - threshold)))
        omega = 1 / (1 + mp.e ** (slope * threshold))
        return mp.mpf(params.eh_saturation) * (psi - omega) / (1 - omega)


def mp_tau_min(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        return mp.mpf(user.demand_bits) / mp_rate(params, user)


def mp_energy_required(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        return mp_tau_min(params, user) * mp.mpf(params.p_max)


def mp_s_min(params: SystemParams, user: UserProfile) -> mp.mpf:
    with mp.workdps(_DPS):
        tau = mp_tau_min(params, user)
        energy = tau * mp.mpf(params.p_max)
        c = mp_harvest_rate(params, user)
        return (energy - mp.mpf(user.initial_energy) - tau * c) / c


def rel_err(value: float, reference: mp.mpf) -> float:
    with mp.workdps(_DPS):
        if reference == 0:
            return abs(float(value))
        return float(abs((mp.mpf(value) - reference) / reference))


# -- LP vertex-enumeration oracle --------------------------------------------

def vertex_enum_max(c: np.ndarray, a: np.ndarray, b: np.ndarray,
                    feas_tol: float = 1e-8) -> float | None:
    """Best objective over all basic feasible points of {A x <= b, x >= 0}.

    Enumerates every choice of n constraints out of the m + n available,
    solves the square system, and keeps feasible intersection points. None
    means no feasible vertex was found.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    stacked = np.vstack([a, -np.eye(n)])
    bounds = np.concatenate([b, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(m + n), n):
        subset = list(rows)
        try:
            x = np.linalg.solve(stacked[subset], bounds[subset])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        # Guard against ill-conditioned systems that "solved" badly.
        if np.max(np.abs(stacked[subset] @ x - bounds[subset])) > 1e-9:
            continue
        if np.all(stacked @ x <= bounds + feas_tol):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def two_solve_certificate(problem) -> tuple[np.ndarray, str] | None:
    """``lp._certified_start`` as two separate dense solves with one
    reduction per test: the reference its stacked form must match bit for
    bit, rejections included."""
    a = problem.constraint_matrix
    c = problem.objective
    cols = np.array(problem.start, dtype=np.intp)
    rows = slice(None)
    basis_matrix = a[:, cols]
    basic_costs = c[cols]
    path = "certified"
    while True:
        try:
            x_basic = np.linalg.solve(basis_matrix, problem.rhs)
            if not (np.isfinite(x_basic).all() and (x_basic >= 0.0).all()):
                return None
            duals = np.linalg.solve(basis_matrix.T, basic_costs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(duals).all():
            return None
        reduced = c - duals @ a
        reduced[cols] = 0.0
        if not (reduced <= FEASIBILITY_TOL).all():
            return None
        if (duals >= -FEASIBILITY_TOL).all():
            x = np.zeros(c.size)
            x[cols] = x_basic[rows]
            return x, path
        if path == "repaired":
            return None
        path = "repaired"
        dropped = duals < -FEASIBILITY_TOL
        rows = (~dropped).nonzero()[0]
        cols = cols[rows]
        basis_matrix[:, dropped] = 0.0
        basis_matrix[dropped, dropped] = 1.0
        basic_costs[dropped] = 0.0
