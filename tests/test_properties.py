"""Property-based checks of the simplex, the throughput LP builder and the
schedulers against their exhaustive oracles."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from wpcn_sched import (
    GenConfig,
    Infeasible,
    NetworkInstance,
    RateOverflow,
    SystemParams,
    UserProfile,
    brute_force_mls,
    brute_force_stm,
    harvest_rate,
    mlsa,
    mrsa,
    pdo,
    rate,
    s_min,
    sample,
    tau_min,
    validate,
)
from wpcn_sched import lp as lp_module
from wpcn_sched.lp import PIVOT_TOL, LpProblem, LpStatus, NumericalBreakdown, solve
from wpcn_sched.model import ENERGY_TOL, layout, shortfalls
from wpcn_sched.stm import FRAME_LENGTH, fixed_order_stm, lp_coefficients, throughput_lp

from helpers import assert_same_fields, dense_staircase, exact_vertex_max, staircase_problem


@st.composite
def small_integer_lps(draw):
    """LPs with up to 3 variables and 4 rows, small integer data.

    Right-hand sides are nonnegative, as ``LpProblem`` requires, so x = 0 is
    feasible; a final box row sum(x) <= 3 keeps every instance bounded, so
    the vertex oracle sees each optimum.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    a = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    b = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=float)
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    return c, np.vstack([a, np.ones((1, n))]), np.append(b, 3.0)


@given(small_integer_lps())
def test_simplex_matches_vertex_enumeration(data):
    c, a, b = data
    solution = solve(LpProblem(objective=c, constraint_matrix=a, rhs=b))
    assert solution.status is LpStatus.OPTIMAL
    assert abs(solution.objective_value - float(exact_vertex_max(c, a, b))) < 1e-9


@st.composite
def lps_with_a_tiny_column(draw):
    """``small_integer_lps`` with one column's constraint entries scaled by
    1e-9 to 1e-13; the box row keeps its 1, so the LP stays bounded.

    Not down to 1e-14: there, entries reach ``lp._RESIDUE_TOL`` times the
    column's largest, which the simplex reads as round-off, and a wrong
    optimum still comes back (maximize 2x s.t. 1e-14 x <= 0, x <= 3 gives 6).
    """
    c, a, b = draw(small_integer_lps())
    scale = 10.0 ** -draw(st.floats(9.0, 13.0))
    a[:-1, draw(st.integers(0, c.size - 1))] *= scale
    return c, a, b, scale


# 300 examples: the first 100 never put a tiny entry in a row that binds first.
@settings(max_examples=300)
@given(lps_with_a_tiny_column())
def test_tiny_column_is_solved_or_refused(data):
    c, a, b, scale = data
    try:
        solution = solve(LpProblem(objective=c, constraint_matrix=a, rhs=b))
    except NumericalBreakdown:
        event("refused")
        return
    assert solution.status is LpStatus.OPTIMAL
    # A pivot on an entry near `scale` (never below PIVOT_TOL) amplifies
    # round-off by its inverse; a wrong vertex is off by about 1 here.
    tolerance = 1e-9 + 1e-14 / max(scale, PIVOT_TOL)
    assert abs(solution.objective_value - float(exact_vertex_max(c, a, b))) <= tolerance


def loop_built_lp(instance, order):
    """The fixed-order LP assembled one row at a time: the reference."""
    params = instance.params
    n = instance.n_users
    c = np.zeros(n + 1)
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    a[0, :] = 1.0
    b[0] = FRAME_LENGTH
    for pos, i in enumerate(order):
        user = instance.users[i - 1]
        col = pos + 1
        c[col] = rate(params, user)
        a[col, :col + 1] = -harvest_rate(params, user)
        a[col, col] += params.p_max
        b[col] = user.initial_energy
    return c, a, b


users = st.one_of(
    st.builds(UserProfile,
              uplink_gain=st.floats(1e-12, 1.0),
              downlink_gain=st.floats(1e-9, 1.0),
              initial_energy=st.one_of(st.just(0.0), st.floats(0.0, 1e-2))),
    # At most 0.4 W of input times a 5e-324 slope underflows to 0: the user
    # harvests exactly nothing, so its row holds -0.0 entries.
    st.builds(UserProfile,
              uplink_gain=st.floats(1e-12, 1.0),
              downlink_gain=st.just(0.04),
              initial_energy=st.floats(0.0, 1e-2),
              eh_slope=st.just(5e-324)),
)


@st.composite
def instances_and_orders(draw):
    params = SystemParams(p_h=draw(st.floats(0.1, 10.0)),
                          p_max=draw(st.floats(0.01, 1.0)))
    n = draw(st.integers(1, 30))
    instance = NetworkInstance(params=params,
                               users=tuple(draw(st.lists(users, min_size=n, max_size=n))))
    return instance, draw(st.permutations(range(1, n + 1)))


@given(instances_and_orders())
def test_throughput_lp_is_the_loop_built_lp_byte_for_byte(data):
    instance, order = data
    problem = throughput_lp(instance, order)
    c, a, b = loop_built_lp(instance, order)
    # The objective is the rates times the power of two that puts the
    # largest in [0.5, 1).
    c = np.ldexp(c, -math.frexp(c.max())[1])
    assert problem.objective.tobytes() == c.tobytes()
    assert problem.constraint_matrix.tobytes() == a.tobytes()
    assert problem.rhs.tobytes() == b.tobytes()
    # The oracle's path: every order gathered from coefficients computed once.
    gathered = throughput_lp(instance, order, lp_coefficients(instance))
    assert gathered.objective.tobytes() == c.tobytes()
    assert gathered.constraint_matrix.tobytes() == a.tobytes()
    assert gathered.rhs.tobytes() == b.tobytes()
    assert gathered.tight_start and problem.tight_start


@st.composite
def laid_out_schedules(draw):
    """An instance and the layout of some of its users in a drawn order. Each
    slot lasts a drawn time, or the time that leaves, in floats, a drawn
    balance between -2 ENERGY_TOL and 0 when the slot ends."""
    instance, order = draw(instances_and_orders())
    p_max = instance.params.p_max
    t = tau0 = draw(st.floats(0.0, 1.0))
    pairs = []
    for i in order[:draw(st.integers(0, len(order)))]:
        c = instance.harvest_rates[i - 1]
        if draw(st.booleans()) and p_max > c:
            target = draw(st.floats(-2 * ENERGY_TOL, 0.0))
            duration = (instance.user(i).initial_energy + c * t - target) / (p_max - c)
        else:
            duration = draw(st.floats(0.0, 0.1))
        pairs.append((i, duration))
        t += duration
    return instance, layout(tau0, pairs)


@given(laid_out_schedules())
def test_shortfalls_is_the_exact_replay_to_a_few_ulps(data):
    # Three roundings and a subtraction put the float balance within 3 ulps
    # of the largest term from the exact balance of the laid-out slot.
    instance, schedule = data
    params = instance.params
    short = shortfalls(instance, schedule)
    assert set(short) <= {slot.user for slot in schedule.slots}
    for slot in schedule.slots:
        user = instance.user(slot.user)
        c = harvest_rate(params, user)
        terms = (user.initial_energy, c * slot.end, params.p_max * slot.duration)
        margin = 4 * math.ulp(max(terms))
        exact = (Fraction(user.initial_energy) + Fraction(c) * Fraction(slot.end)
                 - Fraction(params.p_max) * Fraction(slot.duration))
        excess = exact + Fraction(ENERGY_TOL)
        if excess < -margin:
            event("short")
            assert slot.user in short
        elif excess > margin:
            event("not short")
            assert slot.user not in short
        else:
            event("within the margin of -ENERGY_TOL")
        if slot.user in short:
            assert abs(Fraction(short[slot.user]) - exact) <= margin


def generated_instances(n_users, demand_bits=st.sampled_from([10.0, 100.0, 1000.0]),
                        battery_max=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])):
    return st.builds(
        GenConfig,
        n_users=n_users,
        seed=st.integers(0, 2**63),
        system=st.builds(SystemParams, p_h=st.floats(0.1, 10.0), p_max=st.floats(0.01, 1.0)),
        demand_bits=demand_bits,
        battery_max=battery_max,
        min_distance=st.sampled_from([0.0, 1.0]),
    ).map(sample)


small_instances = generated_instances(st.sampled_from([4, 3, 2, 1]))


@st.composite
def generated_instances_and_orders(draw):
    instance = draw(generated_instances(st.sampled_from([6, 5, 4, 3, 2, 1])))
    return instance, draw(st.permutations(range(1, instance.n_users + 1)))


# An order whose tight start has a negative dual, so the repair runs.
@example((sample(GenConfig(n_users=6, seed=9, system=SystemParams(p_h=8.0, p_max=0.1),
                           battery_max=1e-3, min_distance=1.0)),
          [1, 2, 5, 4, 6, 3]))
@given(generated_instances_and_orders())
def test_certified_start_matches_the_cold_solve(data):
    instance, order = data
    problem = throughput_lp(instance, order)
    warm = solve(problem)
    event(warm.path)
    cold = solve(dataclasses.replace(problem, tight_start=False))
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
    assert np.all(np.abs(warm.x - cold.x) <= 1e-12 * np.maximum(1.0, np.abs(cold.x)))
    if instance.n_users <= 5:
        oracle = float(exact_vertex_max(problem.objective, problem.constraint_matrix,
                                        problem.rhs))
        assert abs(warm.objective_value - oracle) <= 1e-9 * max(1.0, abs(oracle))


# Batteries of the throughput LPs: empty (GenConfig's default), the
# benchmark's, and rich enough that one battery can fill the frame.
BATTERY_REGIMES = {
    "empty": {},
    "benchmark": {"battery_max": 0.001, "min_distance": 1.0},
    "battery-rich": {"system": SystemParams(p_h=1.0, p_max=0.01), "battery_max": 0.01},
}


@st.composite
def throughput_lps(draw):
    regime = draw(st.sampled_from(sorted(BATTERY_REGIMES)))
    config = {"system": SystemParams(p_h=draw(st.sampled_from([0.5, 2.0, 8.0])), p_max=0.1),
              **BATTERY_REGIMES[regime]}
    instance = sample(GenConfig(n_users=draw(st.integers(1, 30)),
                                seed=draw(st.integers(0, 2**63)), **config))
    return regime, throughput_lp(instance, draw(st.permutations(range(1, instance.n_users + 1))))


# The 50-user index order of fixed_order_large.txt, which takes the repair.
@example(("benchmark", throughput_lp(sample(GenConfig(n_users=50, seed=0, battery_max=0.001,
                                                      min_distance=1.0)), range(1, 51))))
@settings(max_examples=300)
@given(throughput_lps())
def test_staircase_certificate_matches_the_plain_square_start(data):
    regime, problem = data
    staircase = solve(problem)
    # The same arrays without the staircase mark: its duals by LAPACK.
    plain = solve(dataclasses.replace(problem))
    event(f"{regime}: {staircase.path}")
    assert (staircase.status, staircase.path, staircase.pivots) == (
        plain.status, plain.path, plain.pivots)
    assert staircase.x.tobytes() == plain.x.tobytes()
    assert staircase.objective_value == plain.objective_value
    m = problem.objective.size
    duals = lp_module._staircase_duals(*problem._staircase, range(m - 1, 0, -1), True)
    reference = np.linalg.solve(problem.constraint_matrix.T, problem.objective)
    # Relative to the largest dual: a small dual that is the difference of
    # large terms carries their round-off, by either method.
    assert np.abs(np.array(duals) - reference).max() <= 1e-12 * np.abs(reference).max()


@st.composite
def priced_staircases(draw):
    """(mark, y, dropped, A) of a staircase LP: its mark's lower and diagonal
    values, duals y, a drop mask and the dense matrix A. Each c_j is y.A_j
    plus an offset at least 1e-6 from zero, of either sign, so every reduced
    cost is far from FEASIBILITY_TOL (1e-9) next to the round-off of both
    computations."""
    size = draw(st.integers(2, 12))
    small = st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size)
    lower, y = np.array(draw(small)), np.array(draw(small))
    p_max = draw(st.floats(0.01, 10.0))
    a = dense_staircase(lower, p_max)
    offsets = draw(st.lists(st.floats(1e-6, 10.0) | st.floats(-10.0, -1e-6),
                            min_size=size, max_size=size))
    c = y @ a + np.array(offsets)
    mark = (c.tolist(), lower.tolist(), [e + p_max for e in lower.tolist()])
    return mark, y.tolist(), draw(st.lists(st.booleans(), min_size=size, max_size=size)), a


@given(priced_staircases())
def test_staircase_prices_out_is_the_dense_rule(data):
    # The O(m) test of a repair's dropped columns against c_j - y.A_j over
    # the dense matrix, the rule a problem without the mark is held to.
    mark, y, dropped, a = data
    reduced = np.array(mark[0]) - np.array(y) @ a
    expected = all(cost <= lp_module.FEASIBILITY_TOL for cost, drop in zip(reduced, dropped)
                   if drop)
    event(f"prices out: {expected}")
    assert lp_module._staircase_prices_out(*mark, y, dropped) == expected


NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def staircase_vectors(draw):
    """(objective, rhs, lower, p_max, order) of any sign and magnitude, -0.0
    and overflowing diagonals included, with at most one defect: a NaN or
    infinity in one entry or in p_max, a negative rhs entry, or one vector
    of another length. ``lower[0]`` is never read and may be anything;
    ``order`` is a permutation of 1..size-1."""
    size = draw(st.integers(0, 40))
    order = draw(st.permutations(range(1, size)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    vectors = {
        "objective": draw(st.lists(finite, min_size=size, max_size=size)),
        "rhs": draw(st.lists(st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0),
                             min_size=size, max_size=size)),
        "lower": draw(st.lists(finite, min_size=size, max_size=size)),
    }
    p_max = draw(finite)
    if size:
        vectors["lower"][0] = draw(st.floats())
    defect = draw(st.sampled_from(["none", "non-finite", "p_max", "negative rhs", "length"]))
    event(defect)
    if defect == "non-finite" and size:
        vector = vectors[draw(st.sampled_from(sorted(vectors)))]
        vector[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NON_FINITE))
    elif defect == "p_max":
        p_max = draw(st.sampled_from(NON_FINITE))
    elif defect == "negative rhs" and size:
        vectors["rhs"][draw(st.integers(0, size - 1))] = draw(
            st.floats(max_value=-5e-324, allow_infinity=False))
    elif defect == "length":
        vector = vectors[draw(st.sampled_from(sorted(vectors)))]
        if vector and draw(st.booleans()):
            vector.pop()
        else:
            vector.append(draw(finite))
    return (*(np.array(vectors[name], dtype=float) for name in ("objective", "rhs", "lower")),
            p_max, order)


# The diagonal 1e308 + 1e308 overflows; a staircase of fewer than two variables is refused.
@example((np.zeros(2), np.ones(2), np.array([0.0, 1e308]), 1e308, [1]))
@example((np.zeros(0), np.zeros(0), np.zeros(0), 0.5, []))
@settings(max_examples=300)
@given(staircase_vectors())
def test_staircase_is_the_dense_build(data):
    # Both the vectors' own column order and a table's problem of ``order``
    # are their dense build, refusals included: a table is refused, with
    # the same message, exactly when the dense build of its permuted
    # vectors is, or, with no rule of that build broken, when it has fewer
    # than two variables.
    objective, rhs, lower, p_max, order = data
    vectors = objective, rhs, lower
    columns = [0, *order]
    permuted = vectors
    if {v.size for v in vectors} == {len(columns)}:   # else refused whatever the order
        permuted = tuple(v[columns] for v in vectors)
    builds = [
        (vectors, lambda: staircase_problem(objective, rhs, lower, p_max)),
        (permuted, lambda: lp_module.Staircase(objective.tolist(), rhs.tolist(), lower.tolist(),
                                               p_max).problem(order)),
    ]
    for (c, b, low), build in builds:
        try:
            reference = LpProblem(c, dense_staircase(low, p_max), b, tight_start=True)
            if low.size < 2:
                raise ValueError("a staircase needs tau0 and at least one user, "
                                 f"got {low.size} variables")
        except ValueError as error:
            event("refused")
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == str(error)
            continue
        assert_same_fields(build(), reference)


@given(generated_instances_and_orders())
def test_fixed_order_stm_is_the_same_with_shared_coefficients(data):
    instance, order = data
    shared = fixed_order_stm(instance, order, lp_coefficients(instance))
    alone = fixed_order_stm(instance, order)
    assert repr(shared) == repr(alone)
    assert repr(shared.schedule) == repr(alone.schedule)


def outcome(compute):
    """The hex of each value ``compute()`` returns, or the type and message it raises."""
    try:
        return [value.hex() for value in compute()]
    except (Infeasible, RateOverflow) as exc:
        return type(exc), str(exc)


# A zero rate (tau_min raises Infeasible) and an infinite one (rate raises).
@example(NetworkInstance(SystemParams(p_h=1.0, p_max=0.1),
                         (UserProfile(1e-6, 1e-6), UserProfile(5e-324, 1e-6))))
@example(NetworkInstance(SystemParams(p_h=1.0, p_max=0.1),
                         (UserProfile(1e-6, 1e-6), UserProfile(1e308, 1e-6))))
@given(st.one_of(instances_and_orders().map(lambda data: data[0]),
                 generated_instances(st.integers(1, 8),
                                     demand_bits=st.sampled_from([100.0, 1e8, 1e12]))))
def test_cached_closed_forms_are_the_closed_forms(instance):
    for name, closed_form in [("rates", rate), ("harvest_rates", harvest_rate),
                              ("tau_mins", tau_min), ("s_mins", s_min)]:
        expected = outcome(lambda: [closed_form(instance.params, u) for u in instance.users])
        event(f"{name}: {'raises' if isinstance(expected, tuple) else 'values'}")
        assert outcome(lambda: getattr(instance, name)) == expected
        assert outcome(lambda: getattr(instance, name)) == expected   # kept, or raised again


def mls_or_none(solver, instance):
    try:
        return solver(instance)
    except Infeasible:
        return None


@given(small_instances)
def test_every_schedule_validates(instance):
    for solver in (mlsa, pdo, brute_force_mls):
        solution = mls_or_none(solver, instance)
        if solution is not None:
            assert validate(instance, solution.schedule, check_traffic=True).ok
    for solver in (mrsa, brute_force_stm):
        assert validate(instance, solver(instance).schedule).ok


# Demands of 1e7 bits and up replay an ulp short of ENERGY_TOL or
# TRAFFIC_TOL at the s_min start unless fixed_order_mls corrects for it.
@given(generated_instances(st.integers(1, 8),
                           demand_bits=st.sampled_from([100.0, 1e6, 1e7, 1e8, 1e9, 1e12]),
                           battery_max=st.sampled_from([0.0, 1e-3])))
def test_large_demand_schedules_validate(instance):
    for solver in (mlsa, pdo):
        solution = mls_or_none(solver, instance)
        event("infeasible" if solution is None else "scheduled")
        if solution is not None:
            assert validate(instance, solution.schedule, check_traffic=True).ok


@given(small_instances)
def test_mlsa_matches_the_permutation_oracle(instance):
    greedy = mls_or_none(mlsa, instance)
    oracle = mls_or_none(brute_force_mls, instance)
    assert (greedy is None) == (oracle is None)
    if greedy is not None:
        assert greedy.length == pytest.approx(oracle.length, rel=1e-9)


@given(small_instances)
def test_mrsa_never_beats_the_order_oracle(instance):
    assert mrsa(instance).throughput <= brute_force_stm(instance).throughput * (1 + 1e-9)
