"""Simplex solver against hand cases and the vertex-enumeration oracle."""

import dataclasses
import warnings

import numpy as np
import pytest

from wpcn_sched import GenConfig, SystemParams, sample
from wpcn_sched import lp as lp_module
from wpcn_sched.lp import (
    FEASIBILITY_TOL,
    LpProblem,
    LpStatus,
    NumericalBreakdown,
    Staircase,
    solve,
)
from wpcn_sched.stm import lp_coefficients, throughput_lp

from helpers import (assert_same_fields, dense_staircase, exact_vertex_max, random_instance,
                     staircase_problem, two_solve_certificate)


def lp(c, a, b, tight_start=False) -> LpProblem:
    return LpProblem(objective=np.array(c, dtype=float),
                     constraint_matrix=np.array(a, dtype=float),
                     rhs=np.array(b, dtype=float), tight_start=tight_start)


def random_bounded_lp(rng, n, m_extra):
    """Random LP with b >= 0 and a box row, so x=0 is feasible and the
    optimum is finite. Entries are rounded to keep vertices well separated."""
    a = np.round(rng.uniform(-1.0, 1.0, size=(m_extra, n)), 3)
    b = np.round(rng.uniform(0.05, 1.5, size=m_extra), 3)
    a = np.vstack([a, np.ones((1, n))])
    b = np.concatenate([b, [2.0]])
    c = np.round(rng.uniform(-1.0, 1.0, size=n), 3)
    return lp(c, a, b)


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(ValueError, match="constraint_matrix a matrix"):
            lp([1.0], [1.0], [1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("entry", ["c", "A", "b"])
    def test_nonfinite_rejected(self, entry, value):
        # The bad entry comes last, after finite ones; a -inf in b fails the
        # finiteness check before the sign check.
        arrays = {"c": np.ones(2), "A": np.eye(2), "b": np.ones(2)}
        arrays[entry].ravel()[-1] = value
        with pytest.raises(ValueError, match="all entries must be finite"):
            LpProblem(arrays["c"], arrays["A"], arrays["b"])

    @pytest.mark.parametrize("tight_start", [False, True], ids=["cold", "tight"])
    def test_lists_and_int_arrays_become_float_arrays(self, tight_start):
        c, a, b = [1, 1], [[2, 1], [1, 3]], [4, 6]
        floats = [np.array(v, dtype=float) for v in (c, a, b)]
        solutions = []
        for args in ([c, a, b], [np.array(v) for v in (c, a, b)], floats):
            problem = LpProblem(*args, tight_start=tight_start)
            fields = (problem.objective, problem.constraint_matrix, problem.rhs)
            assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in fields)
            solutions.append(solve(problem))
        assert all(x is y for x, y in zip(fields, floats))   # float arrays are kept
        assert len({(s.status, s.x.tobytes(), s.objective_value, s.path)
                    for s in solutions}) == 1

    def test_negative_rhs_rejected(self):
        # x <= -1 with x >= 0: the one-phase simplex needs x = 0 feasible
        with pytest.raises(ValueError, match="rhs must be >= 0"):
            lp([1.0], [[1.0]], [-1.0])
        with pytest.raises(ValueError, match="rhs must be >= 0"):
            lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, -1e-300], tight_start=True)

    # Where two rules are broken, both constructors report the first one:
    # dimensions, then finiteness, then the sign of rhs.
    @pytest.mark.parametrize("objective, rhs, lower, message", [
        ([0.0, np.nan], [1.0], [0.0, -0.5], "inconsistent dimensions"),
        ([0.0, 1.0], [1.0], [0.0, np.nan], "inconsistent dimensions"),
        ([0.0, np.nan], [1.0, -1.0], [0.0, -0.5], "all entries must be finite"),
        ([0.0, 1.0], [1.0, -1.0], [0.0, np.nan], "all entries must be finite"),
        ([0.0, 1.0], [np.nan, -1.0], [0.0, -0.5], "all entries must be finite"),
    ], ids=["length-and-nan-in-c", "length-and-nan-in-A", "nan-in-c-and-negative-rhs",
            "nan-in-A-and-negative-rhs", "nan-and-negative-in-rhs"])
    def test_the_first_broken_rule_is_reported(self, objective, rhs, lower, message):
        c, b, low = (np.array(v, dtype=float) for v in (objective, rhs, lower))
        with pytest.raises(ValueError, match=message) as general:
            LpProblem(c, dense_staircase(low, 0.5), b, tight_start=True)
        with pytest.raises(ValueError, match=message) as staircase:
            staircase_problem(c, b, low, 0.5)
        assert str(staircase.value) == str(general.value)

    def test_negative_zero_rhs_is_zero(self):
        # -0.0 passes the sign check and enters the tableau as +0.0
        solution = solve(lp([1.0], [[1.0]], [-0.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.x.tolist() == [0.0] and not np.signbit(solution.x[0])

    # A tight start makes every variable basic, one per row: too few or too
    # many rows for the two variables leave no such basis.
    @pytest.mark.parametrize("a, b", [([[1.0, 0.0]], [1.0]),
                                      ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0])],
                             ids=["too-few", "too-many"])
    def test_bad_start_rejected(self, a, b):
        with pytest.raises(ValueError, match="tight_start needs a square constraint_matrix"):
            lp([1.0, 1.0], a, b, tight_start=True)


class TestHandCases:
    # No variables: x = [] is the optimum, cold and from the tight start.
    @pytest.mark.parametrize("a, b, tight_start", [
        (np.zeros((0, 0)), [], False),
        (np.zeros((0, 0)), [], True),
        (np.zeros((2, 0)), [1.0, 1.0], False),
    ], ids=["empty-cold", "empty-tight-start", "rows-only"])
    def test_lp_without_variables_is_optimal_at_zero(self, a, b, tight_start):
        solution = solve(lp([], a, b, tight_start=tight_start))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.x.shape == (0,) and solution.objective_value == 0.0
        assert solution.pivots == 0

    def test_single_bound(self):
        solution = solve(lp([1.0], [[1.0]], [1.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value - 1.0) < 1e-12
        assert abs(solution.x[0] - 1.0) < 1e-12

    def test_two_variables_shared_budget(self):
        solution = solve(lp([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.3]))
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value - 1.0) < 1e-12

    def test_unbounded_no_constraints(self):
        solution = solve(LpProblem(objective=np.array([1.0]),
                                   constraint_matrix=np.zeros((0, 1)),
                                   rhs=np.zeros(0)))
        assert solution.status is LpStatus.UNBOUNDED

    def test_unbounded_wrong_direction(self):
        solution = solve(lp([1.0], [[-1.0]], [1.0]))
        assert solution.status is LpStatus.UNBOUNDED

    def test_all_negative_objective_stays_home(self):
        solution = solve(lp([-1.0, -2.0], [[1.0, 1.0]], [1.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == 0.0
        assert np.all(solution.x == 0.0)

    def test_beale_degenerate_cycle_guard(self):
        # Classic degenerate instance that cycles under naive pivoting.
        problem = lp(
            [0.75, -150.0, 0.02, -6.0],
            [[0.25, -60.0, -0.04, 9.0],
             [0.5, -90.0, -0.02, 3.0],
             [0.0, 0.0, 1.0, 0.0]],
            [0.0, 0.0, 1.0])
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        oracle = exact_vertex_max(problem.objective, problem.constraint_matrix,
                                  problem.rhs)
        assert abs(solution.objective_value - float(oracle)) < 1e-9

    def test_ratio_tie_goes_to_smallest_basic_variable(self):
        # Pivots: x0 enters row 2, x1 enters row 1, then x3 ties rows 0 and
        # 2 at ratio 1. Row 0 holds slack 4 and row 2 holds x0, so Bland's
        # rule pivots on row 2; taking the smaller row index instead ends on
        # the other optimal vertex, (0, 2, 2, 0).
        problem = lp([2.0, 2.0, 0.0, 1.0],
                     [[0.0, -1.0, 1.0, 1.0],
                      [2.0, 1.0, 0.0, 1.0],
                      [1.0, -1.0, -1.0, 1.0]],
                     [0.0, 2.0, 0.0])
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        assert np.allclose(solution.x, [0.0, 2.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
        assert exact_vertex_max(problem.objective, problem.constraint_matrix,
                                problem.rhs) == 4

    def test_round_off_residue_is_not_a_pivot(self):
        # maximize 2y + z  s.t.  -x + y + z <= 2, 2y - z <= 0, x - z <= 2.
        # After three pivots the entering column holds a 1.1e-16 round-off
        # residue where exact arithmetic has 0; it must not pass for a tiny
        # pivot. The ray (1, 0, 1) from x = 0 proves the LP unbounded.
        problem = lp([0.0, 2.0, 1.0],
                     [[-1.0, 1.0, 1.0],
                      [0.0, 2.0, -1.0],
                      [1.0, 0.0, -1.0]],
                     [2.0, 0.0, 2.0])
        ray = np.array([1.0, 0.0, 1.0])
        assert np.all(problem.constraint_matrix @ ray <= 0.0)
        assert problem.objective @ ray > 0.0
        assert solve(problem).status is LpStatus.UNBOUNDED

    def test_reduced_cost_at_tolerance_does_not_enter(self):
        # A reduced cost must exceed FEASIBILITY_TOL to enter; at exactly
        # the tolerance x stays at its bound.
        solution = solve(lp([FEASIBILITY_TOL], [[1.0]], [1.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.x.tolist() == [0.0]
        assert solution.objective_value == 0.0

    def test_tiny_pivot_surfaces_breakdown(self):
        with pytest.raises(NumericalBreakdown):
            solve(lp([1.0], [[1e-13]], [1.0]))

    def test_column_far_below_the_tolerances(self):
        # The best vertex needs x2 near 1e14. Its reduced cost stays below
        # FEASIBILITY_TOL, so it never enters, but it is large next to its
        # 1e-14 entries: the simplex's stop at x = 0 is refused.
        problem = lp([2.0, 0.0, 0.0],
                     [[2.0, -2.0, 0.0],
                      [1.0, 2.0, -2e-14],
                      [2.0, 0.0, -1e-14],
                      [2.0, -1.0, 1e-14],
                      [2.0, -2.0, 1e-14]],
                     [0.0, 1.0, 0.0, 1.0, 1.0])
        oracle = exact_vertex_max(problem.objective, problem.constraint_matrix,
                                  problem.rhs)
        assert abs(float(oracle) - 1.2) < 1e-9
        with pytest.raises(NumericalBreakdown, match="column 2"):
            solve(problem)

    def test_iteration_limit_surfaces_breakdown(self, monkeypatch):
        # Two unit boxes take two pivots; a limit of one must not pass off
        # the half-way vertex as optimal.
        problem = lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert solve(problem).pivots == 2
        monkeypatch.setattr(lp_module, "_MAX_ITERATIONS", 1)
        with pytest.raises(NumericalBreakdown, match="iteration limit reached"):
            solve(problem)

    def test_tiny_pivot_that_binds_first_is_refused(self):
        # The first row forces x0 = 0 (exact optimum 0), but its 2e-14 entry
        # is below PIVOT_TOL, so x0 would enter on the box row to x = (3, 0),
        # objective 9. The row that binds first is refused instead.
        problem = lp([3.0, -1.0],
                     [[2e-14, 2.0],
                      [1e-14, -2.0],
                      [-1e-14, 0.0],
                      [0.0, -2.0],
                      [1.0, 1.0]],
                     [0.0, 2.0, 2.0, 0.0, 3.0])
        assert exact_vertex_max(problem.objective, problem.constraint_matrix,
                                problem.rhs) == 0
        with pytest.raises(NumericalBreakdown, match="would bind first"):
            solve(problem)


class TestOracleEquivalence:
    def test_random_3x3(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            problem = random_bounded_lp(rng, 3, 2)
            solution = solve(problem)
            assert solution.status is LpStatus.OPTIMAL
            oracle = exact_vertex_max(problem.objective,
                                      problem.constraint_matrix, problem.rhs)
            assert abs(solution.objective_value - float(oracle)) < 1e-9

    def test_degenerate_structures(self):
        # zero rhs entries, duplicated rows, and implied equalities
        # (a.x <= 0 and -a.x <= 0) exercise degenerate pivots; the box row
        # keeps every draw bounded.
        rng = np.random.default_rng(2718)
        for trial in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(0, 3, size=m).astype(float)
            if trial % 3 == 0:
                b[rng.integers(0, m)] = 0.0
            if trial % 4 == 0 and m >= 2:
                a[1], b[1] = a[0], b[0]
            if trial % 5 == 0 and m >= 2:
                b[0] = 0.0
                a[1], b[1] = -a[0], 0.0
            a = np.vstack([a, np.ones((1, n))])
            b = np.concatenate([b, [3.0]])
            problem = lp(rng.integers(-3, 4, size=n).astype(float), a, b)
            solution = solve(problem)
            assert solution.status is LpStatus.OPTIMAL
            oracle = exact_vertex_max(problem.objective, a, b)
            assert abs(solution.objective_value - float(oracle)) < 1e-9

    def test_solution_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            problem = random_bounded_lp(rng, int(rng.integers(1, 5)),
                                        int(rng.integers(1, 5)))
            solution = solve(problem)
            assert solution.status is LpStatus.OPTIMAL
            x = solution.x
            assert np.all(x >= -1e-12)
            assert np.all(problem.constraint_matrix @ x <= problem.rhs + FEASIBILITY_TOL)
            # reported value is exactly the recomputed inner product
            assert solution.objective_value == float(problem.objective @ x)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(17)
        problem = random_bounded_lp(rng, 4, 4)
        first = solve(problem)
        second = solve(problem)
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)


class TestCertifiedStart:
    """A tight start is returned only when its vertex passes the simplex's
    optimality test; any other start gives the cold solve's result."""

    @staticmethod
    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    @pytest.fixture
    def no_pivoting(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_run_simplex", self.no_simplex)

    @pytest.mark.parametrize("c, a, b, x, path", [
        # x0 + x1 <= 1 and x0 <= 0.3, both tight at the optimum
        ([2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.3], [0.3, 0.7], "certified"),
        # (1, 1) is feasible, but x1 <= 1 has dual -1: slack 1 replaces x1,
        # and (x0, s1) = (1, 1) certifies (x1 prices out at -1)
        ([1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [1.0, 0.0], "repaired"),
    ], ids=["shared-budget", "repaired-slack"])
    def test_optimal_start_is_returned_without_pivoting(self, no_pivoting, c, a, b, x, path):
        problem = lp(c, a, b, tight_start=True)
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        assert (solution.path, solution.pivots) == (path, 0)
        assert solution.x.tolist() == pytest.approx(x, abs=1e-15)
        assert solution.objective_value == float(problem.objective @ solution.x)

    @pytest.mark.parametrize("problem, path", [
        # x0 + x1 = 1 and x0 - x1 = 2 meet at (1.5, -0.5)
        (lp([2.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 2.0], True), "pivoted"),
        # (1, 1) is feasible, but loosening x1 <= 1 gains (its dual is -1);
        # the repair finds the cold solve's vertex
        (lp([1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], True), "repaired"),
        # (0, 0.5, 1) has dual -5e-5 on row 0; after slack 0 replaces x0,
        # x0's reduced cost 5e-10 is below FEASIBILITY_TOL but large next to
        # its 1e-5 entries, so the repair is refused: the optimum has x0 = 1e5
        (lp([5e-10, 2.0, 0.0], [[-1e-5, 2.0, 0.0], [1e-5, -2.0, 1.0], [0.0, 2.0, 0.0]],
         [1.0, 0.0, 1.0], True), "pivoted"),
        # the two rows are parallel: no basis
        (lp([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], True), "pivoted"),
        # (0, 0.5) has duals (-0.5, 1); after slack 0 replaces x0, the
        # vertex (s0, x1) = (0, 0.5) has duals (0, 0.5) and x0 prices out at
        # 2 - 0.5 = 1.5
        (lp([2.0, 1.0], [[-2.0, 2.0], [1.0, 2.0]], [1.0, 1.0], True), "pivoted"),
        # (0, 2) has duals (-1, 0); after slack 0 replaces x0, the vertex
        # (s0, x1) = (0, 2) has duals (0, -1): a new negative dual
        (lp([1.0, -1.0], [[-1.0, 1.0], [2.0, 1.0]], [2.0, 2.0], True), "pivoted"),
        # the vertex (1, 1) is finite and nonnegative, but its first dual
        # -1e200 / 1e-200 overflows to -inf
        (lp([-1e200, 1.0], [[1e-200, 0.0], [0.0, 1.0]], [1e-200, 1.0], True), "pivoted"),
        # the vertex (2, -0.0) is finite and nonnegative, but its first dual
        # (2^500 - 1) / 2^-600 overflows to +inf
        (lp([2.0 ** 500, 1.0], [[2.0 ** -600, 0.0], [1.0, 1.0]], [2.0 ** -599, 2.0], True),
         "pivoted"),
        # 1e200 / 1e-200 overflows: the vertex is (inf, 1)
        (lp([-1.0, 1.0], [[1e-200, 0.0], [0.0, 1.0]], [1e200, 1.0], True), "pivoted"),
        # back substitution meets inf - inf: the vertex is (nan, nan, inf)
        (lp([-1.0, -1.0, 1.0], [[1.0, 1.0, 1.0], [0.0, 1e-200, 0.0], [0.0, 0.0, 1e-200]],
         [1.0, 1e200, 1e200], True), "pivoted"),
        # a marked staircase whose rows 1 and 2 are all zero: LAPACK's vertex
        # is NaN, refused before the mark's duals are read; the optimum is
        # (0, 1, 0)
        (Staircase([0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0).problem((1, 2)),
         "pivoted"),
    ], ids=["primal-infeasible", "dual-infeasible-slack", "dual-infeasible-column",
            "singular", "repair-prices-out", "repair-dual-negative",
            "dual-minus-inf", "dual-plus-inf", "vertex-inf", "vertex-nan",
            "singular-staircase"])
    def test_failed_certificate_falls_back_to_the_cold_solve(self, problem, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a singular basis is NaN, not a warning
            warm = solve(problem)
        cold = solve(dataclasses.replace(problem, tight_start=False))
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert (warm.path, cold.path) == (path, "pivoted")
        assert cold.pivots > 0
        assert warm.pivots == (cold.pivots if path == "pivoted" else 0)
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.objective_value == cold.objective_value
        oracle = exact_vertex_max(problem.objective, problem.constraint_matrix,
                                  problem.rhs)
        assert abs(warm.objective_value - float(oracle)) < 1e-9

    def test_repair_holds_a_dropped_column_to_the_scaled_rule(self):
        # The start (0, 0.5) has dual -1e4 on row 0; after slack 0 replaces
        # x0, x0's reduced cost 2e-10 passes FEASIBILITY_TOL, but its entries
        # are 2e-14: the optimum is x0 = 5e13, objective 1e4, which the
        # tolerances cannot resolve. Held only to FEASIBILITY_TOL, the repair
        # returns 0.0.
        problem = lp([2e-10, 0.0], [[-2e-14, 0.0], [2e-14, 2.0]], [0.0, 1.0],
                     tight_start=True)
        assert exact_vertex_max(problem.objective, problem.constraint_matrix,
                                problem.rhs) == pytest.approx(1e4, rel=1e-12)
        assert lp_module._certified_start(problem) is None
        with pytest.raises(NumericalBreakdown, match="column 0"):
            solve(problem)

    def test_square_certificate_matches_the_two_solve_reference(self):
        # Random square tight starts whose vertex is often nonnegative, with
        # some entries scaled by 1e±160 so that vertices and duals also
        # overflow to infinity or NaN: every outcome, rejections included,
        # is the same.
        rng = np.random.default_rng(8)
        outcomes = set()
        for _ in range(2000):
            m = int(rng.integers(1, 6))
            scale = 10.0 ** (rng.choice([0, 0, 0, -160, 160], size=(m, m))
                             * (rng.random((m, m)) < 0.25))
            a = rng.uniform(-1.0, 1.0, (m, m)) * scale * (rng.random((m, m)) < 0.85)
            vertex = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.8)
            c = rng.uniform(-0.5, 1.0, m) * 10.0 ** rng.choice([0, 0, 0, 160], size=m)
            # One column, cost included, scaled by up to 1e-14: when the
            # repair drops it, its reduced cost meets the scaled rule.
            tiny = int(rng.integers(m))
            a[:, tiny] *= 10.0 ** -rng.choice([0, 0, 5, 14])
            c[tiny] *= 10.0 ** -rng.choice([0, 5, 14])
            with np.errstate(all="ignore"):   # overflows are part of the draw
                # |.| keeps rhs >= 0, as LpProblem requires
                b = np.abs(a @ vertex + rng.uniform(-0.01, 0.05, m))
                if not np.isfinite(b).all():
                    continue
                problem = lp(c, a, b, tight_start=True)
                certified = lp_module._certified_start(problem)
                reference = two_solve_certificate(problem)
            if reference is None:
                assert certified is None
            else:
                assert certified is not None and certified[1] == reference[1]
                assert certified[0].tobytes() == reference[0].tobytes()
            outcomes.add(None if certified is None else certified[1])
        assert outcomes == {None, "certified", "repaired"}

    def test_nan_duals_are_rejected(self):
        # The vertex (1e148, 1e-100, 1) is finite and nonnegative and no
        # entry overflows to infinity, but the duals come back (nan, nan,
        # -0.0): a sign test that let a NaN through would certify this
        # start (Python's min(0.0, nan, nan, -0.0) is 0.0).
        problem = lp([0.5, -1e308, 0.0],
                     [[0.5, -1e300, 1e300], [-1.0, 1e300, -1e200], [-1e160, 1e308, 1e308]],
                     [1e300, 0.0, 1e300], tight_start=True)
        with np.errstate(all="ignore"):
            duals = np.linalg.solve(problem.constraint_matrix.T, problem.objective)
            assert np.isnan(duals[:2]).all() and not np.isinf(duals).any()
            assert two_solve_certificate(problem) is None
            assert lp_module._certified_start(problem) is None

    @pytest.mark.parametrize("c, a, b, status", [
        ([1.0], [[-1.0]], [1.0], LpStatus.UNBOUNDED),
    ], ids=["unbounded"])
    def test_non_optimal_status_survives_a_start(self, c, a, b, status):
        assert solve(lp(c, a, b, tight_start=True)).status is status

    def test_throughput_lp_certifies_without_pivoting(self, monkeypatch):
        # A pinned N=6 instance in the benchmark's regime whose all-slots-basic
        # vertex is optimal: a certificate that never holds fails here.
        problem = throughput_lp(random_instance(seed=6, n_users=6, battery_max=0.001),
                                [3, 1, 4, 6, 5, 2])
        cold = solve(dataclasses.replace(problem, tight_start=False))
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_run_simplex", self.no_simplex)
            warm = solve(problem)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
        assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)
        assert (warm.x > 0.0).all()
        assert warm.path == "certified"

    def test_throughput_lp_repairs_without_pivoting(self, monkeypatch):
        # A pinned N=6 instance in the benchmark's regime (hap_power 8) where
        # the all-slots-basic vertex has one negative dual, on user 4's row:
        # the optimum gives user 4 no time and leaves its row slack.
        instance = sample(GenConfig(n_users=6, seed=0, system=SystemParams(p_h=8.0, p_max=0.1),
                                    battery_max=0.001, min_distance=1.0))
        problem = throughput_lp(instance, [1, 2, 3, 4, 5, 6])
        cold = solve(dataclasses.replace(problem, tight_start=False))
        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_run_simplex", self.no_simplex)
            warm = solve(problem)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.path == "repaired"
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-12)
        dropped = warm.x == 0.0
        assert dropped.tolist() == [False, False, False, False, True, False, False]
        assert (cold.x[dropped] == 0.0).all()
        slack = problem.rhs - problem.constraint_matrix @ warm.x
        assert (slack[dropped] > 0.0).all()

    def test_battery_rich_throughput_lp_still_pivots(self):
        # One battery can fill the frame (p_max 0.01 W, batteries up to
        # 0.01 J): the optimum has tau0 = 0, the all-slots-basic vertex is
        # negative and the repair does not apply. A start that certifies or
        # repairs this case shows up here as fewer pivots.
        instance = sample(GenConfig(n_users=3, seed=0, system=SystemParams(p_h=1.0, p_max=0.01),
                                    battery_max=0.01))
        problem = throughput_lp(instance, [1, 2, 3])
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        assert (solution.path, solution.pivots) == ("pivoted", 5)
        assert solution.x[0] == 0.0
        oracle = exact_vertex_max(problem.objective, problem.constraint_matrix, problem.rhs)
        assert solution.objective_value == pytest.approx(float(oracle), rel=1e-12)


class TestLapackSolve:
    """``lp._lapack_solve`` calls numpy's internal LAPACK gufunc directly: it
    must give ``numpy.linalg.solve``'s bytes, so a numpy that changes that
    gufunc fails here, not in a byte file."""

    @staticmethod
    def assert_same_bytes(a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mine = lp_module._lapack_solve(a, b)
        reference = np.linalg.solve(a, b)
        assert (mine.dtype, mine.shape, mine.tobytes()) == (
            reference.dtype, reference.shape, reference.tobytes())

    @pytest.mark.parametrize("n_users", [6, 25, 50, 100])
    def test_throughput_lps_match_numpy(self, n_users):
        table = lp_coefficients(random_instance(seed=n_users, n_users=n_users,
                                                battery_max=0.001))
        rng = np.random.default_rng(n_users)
        for order in (range(1, n_users + 1), rng.permutation(np.arange(1, n_users + 1)).tolist()):
            problem = table.problem(order)
            a = problem.constraint_matrix
            self.assert_same_bytes(a, problem.rhs)
            self.assert_same_bytes(a.T, problem.objective)   # the duals' strided view

    def test_random_matrices_and_their_transposes_match_numpy(self):
        rng = np.random.default_rng(27)
        for size in (2, 3, 7, 14, 40):
            a = rng.standard_normal((size, size))
            b = rng.standard_normal(size)
            assert not a.T.flags.c_contiguous
            self.assert_same_bytes(a, b)
            self.assert_same_bytes(a.T, b)

    def test_empty_lp_matches_numpy(self):
        self.assert_same_bytes(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("a, b", [
        ([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),                  # parallel rows
        ([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 0.0, 0.0]),
        ([[1e-200, 0.0], [0.0, 1.0]], [1e200, 1.0]),             # x0 overflows
    ], ids=["singular", "zero-rows", "overflow"])
    def test_singular_or_overflowing_input_is_non_finite_without_a_warning(self, a, b):
        a, b = np.array(a), np.array(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = lp_module._lapack_solve(a, b)
        assert not np.isfinite(x).all()
        if np.isnan(x).any():   # numpy's wrapper raises where the gufunc gives NaN
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a, b)
        else:
            self.assert_same_bytes(a, b)


class TestStaircase:
    """``lp.Staircase``'s problems (``staircase_problem``, the identity
    order): the throughput LP's layout, whose start's duals ``solve`` takes
    by back substitution."""

    def test_layout_and_mark(self):
        problem = staircase_problem(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25]),
                                    np.array([7.0, -0.125, -0.25]), 0.5)
        assert problem.constraint_matrix.tolist() == [[1.0, 1.0, 1.0],
                                                      [-0.125, 0.375, 0.0],
                                                      [-0.25, -0.25, 0.25]]
        plain = lp([0.0, 1.0, 2.0], problem.constraint_matrix, [1.0, 0.5, 0.25],
                   tight_start=True)
        # The mark is not part of the constructor, the repr or equality, and
        # replace drops it.
        mark, = (f for f in dataclasses.fields(LpProblem) if f.name == "_staircase")
        assert not (mark.init or mark.repr or mark.compare)
        assert repr(problem) == repr(plain)
        assert problem._staircase is not None
        assert plain._staircase is None
        # The mark's diagonal values are the matrix's below row 0, bit for bit.
        diagonal = problem._staircase[2]
        assert [v.hex() for v in diagonal[1:]] == [
            v.hex() for v in problem.constraint_matrix.diagonal()[1:].tolist()]
        assert dataclasses.replace(problem)._staircase is None
        # The staircase skips the constructor: each compared field, including
        # one added later, must still be what the constructor would make.
        assert_same_fields(problem, dataclasses.replace(problem))

    @pytest.mark.parametrize("size", [0, 1])
    def test_fewer_than_two_variables_are_refused(self, size):
        vector = np.ones(size)
        with pytest.raises(ValueError, match=(
                f"^a staircase needs tau0 and at least one user, got {size} variables$")):
            staircase_problem(vector, vector, vector, 0.5)

    def test_problems_and_solutions_compare_by_identity(self):
        # Their fields are arrays, which have no truth value: equality and
        # the hash are by identity, and assert_same_fields compares fields.
        marked = staircase_problem(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                                   np.array([0.0, -0.1]), 1.0)
        plain = dataclasses.replace(marked)
        solution = solve(marked)
        assert solution.x is not None
        for value, twin in ((marked, plain), (plain, dataclasses.replace(plain)),
                            (solution, dataclasses.replace(solution))):
            assert value == value and not value != value
            assert value != twin and not value == twin
            assert hash(value) == hash(value)
            assert {value, twin} == {twin, value} and len({value, twin}) == 2

    @staticmethod
    def duals(problem, kept=None, frame=True):
        m = problem.objective.size
        return lp_module._staircase_duals(*problem._staircase,
                                          range(m - 1, 0, -1) if kept is None else kept, frame)

    def test_zero_pivot_takes_the_lapack_fallback(self):
        # A harvest rate of p_max leaves row 1 as -0.5 x0 <= 0, with a zero
        # on the diagonal: the back substitution divides by it, so the duals
        # come from a LAPACK solve of A^T y = c, which pivots past it. The
        # start (0, 0.6, 0.4) with duals (1.2, 2, 2) is optimal.
        problem = staircase_problem(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.1]),
                                    np.array([0.0, -0.5, -0.1]), 0.5)
        assert problem.constraint_matrix[1, 1] == 0.0
        assert self.duals(problem) is None
        assert np.linalg.solve(problem.constraint_matrix.T, problem.objective) == (
            pytest.approx([1.2, 2.0, 2.0], rel=1e-14))
        staircase, plain = solve(problem), solve(dataclasses.replace(problem))
        assert (staircase.path, staircase.pivots) == (plain.path, plain.pivots) == ("certified", 0)
        assert staircase.x.tobytes() == plain.x.tobytes()
        assert staircase.x.tolist() == pytest.approx([0.0, 0.6, 0.4], abs=1e-15)

    def test_dropped_frame_column_has_a_zero_dual(self):
        # A cost of -1 on x0: the start (0.4, 0.6) has duals (-0.8, 2), so
        # row 0's slack replaces x0. Its dual is then 0 and y_1 = 1 / 0.9;
        # x0 prices out at -1 + 0.1 / 0.9.
        problem = staircase_problem(np.array([-1.0, 1.0]), np.array([1.0, 0.5]),
                                    np.array([0.0, -0.1]), 1.0)
        assert self.duals(problem) == pytest.approx([-0.8, 2.0], rel=1e-15)
        assert self.duals(problem, kept=[1], frame=False) == [0.0, 1.0 / 0.9]
        staircase, plain = solve(problem), solve(dataclasses.replace(problem))
        assert (staircase.path, staircase.pivots) == (plain.path, plain.pivots) == ("repaired", 0)
        assert staircase.x.tobytes() == plain.x.tobytes()
        assert staircase.x.tolist() == [0.0, 0.5 / 0.9]
        oracle = exact_vertex_max(problem.objective, problem.constraint_matrix, problem.rhs)
        assert staircase.objective_value == pytest.approx(float(oracle), rel=1e-15)

    # The start (1/8, 3/8, 1/2) has negative duals on rows 0 and 2, so their
    # slacks replace x0 and x2. Then y = (0, 2/3, 0) and x0's reduced cost is
    # c0 + 1/3. Row 0 ties every staircase column's largest entry to at least
    # 1: the scaled rule that refuses the dense repair above cannot bind, and
    # the O(m) test of the marked problem holds a dropped column to
    # FEASIBILITY_TOL alone.
    @pytest.mark.parametrize("c0, path", [
        (-1 / 3 + 5e-10, "repaired"),   # 5e-10 passes: x0 = 0 is within tolerance
        (-1 / 3 + 2e-9, "pivoted"),     # 2e-9 exceeds FEASIBILITY_TOL
        (0.0, "pivoted"),               # x0 prices in at 1/3
    ], ids=["within-tolerance", "past-tolerance", "prices-in"])
    def test_repair_holds_a_dropped_column_to_the_tolerance(self, c0, path):
        problem = staircase_problem(np.array([c0, 1.0, -1.0]), np.array([1.0, 0.5, 0.5]),
                                    np.array([0.0, -0.5, -0.5]), 2.0)
        a = problem.constraint_matrix
        assert (np.abs(a).max(axis=0) >= 1.0).all()
        assert (self.duals(problem, kept=[1], frame=False)
                == pytest.approx([0.0, 2.0 / 3.0, 0.0], rel=1e-15))
        staircase, plain = solve(problem), solve(dataclasses.replace(problem))
        assert (staircase.path, staircase.pivots) == (plain.path, plain.pivots)
        assert staircase.path == path and (staircase.pivots > 0) == (path == "pivoted")
        assert staircase.x.tobytes() == plain.x.tobytes()
        if path == "repaired":
            assert staircase.x.tolist() == pytest.approx([0.0, 1.0 / 3.0, 0.0], rel=1e-15)
        else:
            oracle = exact_vertex_max(problem.objective, a, problem.rhs)
            assert staircase.objective_value == pytest.approx(float(oracle), rel=1e-15)
