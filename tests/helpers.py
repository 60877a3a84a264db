"""Shared test fixtures: exact hand-built instances and independent oracles.

The oracles deliberately do not share code with the package: closed forms
are recomputed with mpmath at 60 digits, and LP optima come from exhaustive
vertex enumeration in exact integer arithmetic (:func:`exact_vertex_max`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np

from wpcn_sched import (GenConfig, NetworkInstance, Schedule, SystemParams, UserProfile,
                        harvest_rate, linear_gain, path_loss_db, sample, validate)
from wpcn_sched import model
from wpcn_sched.lp import FEASIBILITY_TOL, LpProblem, Staircase

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


def reference_sample(config: GenConfig) -> NetworkInstance | None:
    """``netgen.sample`` with numpy's general draws: ``rng.normal(0.0, sigma)``
    for shadowing and ``rng.uniform(0.0, battery_max)`` for batteries, in the
    same stream order. None where ``sample`` raises GainOutOfRange."""
    rng = np.random.default_rng(config.seed)
    inner = config.min_distance ** 2
    outer = config.radius ** 2

    def gain(distance):
        shadow = rng.normal(0.0, config.shadow_sigma_db) if config.shadow_sigma_db > 0 else 0.0
        try:
            value = linear_gain(path_loss_db(distance, config.ref_distance, config.ref_loss_db,
                                             config.path_loss_exp, shadow))
        except (OverflowError, ValueError):
            value = math.nan
        if config.fading:
            value *= rng.standard_exponential()
        return value if 0.0 < value < math.inf else None

    users = []
    for _ in range(config.n_users):
        distance = math.sqrt(inner + (outer - inner) * (1.0 - rng.random()))
        uplink = gain(distance)
        downlink = None if uplink is None else gain(distance)
        if downlink is None:
            return None
        battery = rng.uniform(0.0, config.battery_max) if config.battery_max > 0 else 0.0
        users.append(UserProfile(uplink_gain=uplink, downlink_gain=downlink,
                                 initial_energy=battery, demand_bits=config.demand_bits))
    return NetworkInstance(params=config.system, users=tuple(users))


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

def _integer_row(values: list[float]) -> list[int]:
    """``values`` times the least power of two that makes each an integer.
    Every double is a dyadic rational, so the scaling is exact."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _bareiss_solve(aug: list[list[int]]) -> tuple[list[int], int] | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the integer system
    ``[M | r]``: ``(nums, det)`` with ``x = nums / det`` and ``det > 0``, or
    None for a singular M. Every division is exact."""
    n = len(aug)
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        p, pivot_row = aug[k][k], aug[k]
        aug = [row if i == k else [(p * v - row[k] * w) // prev for v, w in zip(row, pivot_row)]
               for i, row in enumerate(aug)]
        prev = p
    nums = [row[-1] for row in aug]
    return (nums, prev) if prev > 0 else ([-v for v in nums], -prev)


def exact_vertex_max(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> Fraction:
    """Best objective over all basic feasible points of {A x <= b, x >= 0},
    in exact arithmetic: each double is the fraction it denotes.

    Every choice of n constraints out of the m + n available is a square
    system; the chosen bounds x_j >= 0 fix those x_j to 0, and the chosen
    rows of A solve for the rest. A vertex is feasible only if it satisfies
    every constraint exactly. Needs b >= 0, so x = 0 is always a vertex.
    """
    m, n = a.shape
    rows = [_integer_row(row) for row in np.column_stack([a, b]).tolist()]
    *cost, cost_scale = _integer_row(c.tolist() + [1.0])   # [c | 1] scaled
    values = []
    for subset in itertools.combinations(range(m + n), n):
        free = [j for j in range(n) if m + j not in subset]
        solved = _bareiss_solve([[rows[r][j] for j in free] + [rows[r][n]]
                                 for r in subset if r < m])
        if solved is None:
            continue
        free_nums, det = solved
        if min(free_nums, default=0) < 0:
            continue
        nums = [0] * n
        for j, v in zip(free, free_nums):
            nums[j] = v
        # map stops at the end of nums: A_r . nums <= b_r * det, exactly
        if any(sum(map(int.__mul__, row, nums)) > row[n] * det for row in rows):
            continue
        values.append(Fraction(sum(map(int.__mul__, cost, nums)), cost_scale * det))
    return max(values)


def two_solve_certificate(problem) -> tuple[np.ndarray, str] | None:
    """``lp._certified_start`` for a tight start, as two separate dense solves
    with one reduction per test: the reference that its result on a square
    problem without the staircase mark must match bit for bit, rejections
    included. A dropped column's reduced cost must
    be at most FEASIBILITY_TOL times min(1, the column's largest entry)."""
    a = problem.constraint_matrix
    c = problem.objective
    basis_matrix = a.copy()
    basic_costs = c.copy()
    dropped = np.zeros(c.size, dtype=bool)
    path = "certified"
    while True:
        try:
            x = np.linalg.solve(basis_matrix, problem.rhs)
            if not (np.isfinite(x).all() and (x >= 0.0).all()):
                return None
            duals = np.linalg.solve(basis_matrix.T, basic_costs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(duals).all():
            return None
        reduced = c - duals @ a
        reduced[~dropped] = 0.0
        bound = FEASIBILITY_TOL * np.minimum(1.0, np.abs(a).max(axis=0, initial=0.0))
        if not (reduced <= bound).all():
            return None
        if (duals >= -FEASIBILITY_TOL).all():
            x[dropped] = 0.0
            return x, path
        if path == "repaired":
            return None
        path = "repaired"
        dropped = duals < -FEASIBILITY_TOL
        basis_matrix[:, dropped] = 0.0
        basis_matrix[dropped, dropped] = 1.0
        basic_costs[dropped] = 0.0


def staircase_problem(objective: np.ndarray, rhs: np.ndarray, lower: np.ndarray,
                      p_max: float) -> LpProblem:
    """The marked ``lp.Staircase`` LP of these float vectors in their own
    column order, ``Staircase(...).problem(range(1, m))``.

    Raises:
        ValueError: as the ``LpProblem`` constructor would for the matrix.
    """
    table = Staircase(objective.tolist(), rhs.tolist(), lower.tolist(), p_max)
    return table.problem(range(1, lower.size))


def dense_staircase(lower: np.ndarray, p_max: float) -> np.ndarray:
    """The matrix of :func:`staircase_problem` built densely, the reference
    its gather must match byte for byte: ``lower`` on and left of the
    diagonal, row 0 overwritten by ones, then p_max added on the diagonal
    below row 0. An overflowing or invalid add leaves its inf or NaN
    without a warning, for the constructor's check to refuse."""
    size = lower.size
    a = np.where(np.tri(size, dtype=bool), lower[:, None], 0.0)
    a[:1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        a.ravel()[size + 1::size + 1] += p_max
    return a


def assert_same_fields(problem, twin) -> None:
    """Every compared field of two ``LpProblem``: arrays by dtype, shape and
    bytes, anything else by equality."""
    for field in dataclasses.fields(problem):
        if field.compare:
            mine, theirs = getattr(problem, field.name), getattr(twin, field.name)
            if isinstance(mine, np.ndarray):
                assert (mine.dtype, mine.shape, mine.tobytes()) == (
                    theirs.dtype, theirs.shape, theirs.tobytes()), field.name
            else:
                assert mine == theirs, field.name


def count_model_calls(monkeypatch, *names: str) -> dict[str, int]:
    """A live count of the calls of each ``model`` function in ``names``,
    through every binding in the package, ``from .model import`` ones too."""
    calls = dict.fromkeys(names, 0)
    package = [module for name, module in sys.modules.items()
               if name == "wpcn_sched" or name.startswith("wpcn_sched.")]
    for name in names:
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


# -- the energy replay --------------------------------------------------------

def record_shortfalls(monkeypatch, module) -> list[tuple[Schedule, dict[int, float]]]:
    """The (schedule, result) of each ``model.shortfalls`` call that
    ``module`` makes from now on, in call order."""
    replayed = []

    def recording(instance, schedule):
        short = model.shortfalls(instance, schedule)
        replayed.append((schedule, short))
        return short

    monkeypatch.setattr(module, "shortfalls", recording)
    return replayed


def assert_validate_replay(instance: NetworkInstance, schedule: Schedule,
                           short: dict[int, float]) -> None:
    """Each balance in ``short`` is, bit for bit, the one computed from
    ``harvest_rate``, and ``validate`` fails exactly the users in it."""
    params = instance.params
    slots = {slot.user: slot for slot in schedule.slots}
    for i, balance in short.items():
        user, slot = instance.user(i), slots[i]
        assert balance.hex() == (user.initial_energy + harvest_rate(params, user) * slot.end
                                 - params.p_max * slot.duration).hex()
    report = validate(instance, schedule)
    assert [i for i, ok in report.energy_ok.items() if not ok] == sorted(short)
