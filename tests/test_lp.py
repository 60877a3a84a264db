"""Simplex solver against hand cases and the vertex-enumeration oracle."""

import dataclasses

import numpy as np
import pytest

from wpcn_sched import GenConfig, SystemParams, sample
from wpcn_sched import lp as lp_module
from wpcn_sched.lp import (
    FEASIBILITY_TOL,
    LpProblem,
    LpStatus,
    NumericalBreakdown,
    solve,
)
from wpcn_sched.stm import throughput_lp

from helpers import random_instance, two_solve_certificate, vertex_enum_max


def lp(c, a, b, start=None) -> LpProblem:
    return LpProblem(objective=np.array(c, dtype=float),
                     constraint_matrix=np.array(a, dtype=float),
                     rhs=np.array(b, dtype=float), start=start)


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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lp([np.inf], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            lp([1.0], [[np.nan]], [1.0])
        with pytest.raises(ValueError):
            lp([1.0], [[1.0]], [-np.inf])

    @pytest.mark.parametrize("start", [(0,), (0, 0), (0, 2), (-1, 0), (0, 1, 2)],
                             ids=["too-few", "repeated", "past-the-end", "negative",
                                  "too-many"])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError, match="start must name 2 distinct columns"):
            lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], start=start)

    def test_start_is_kept_as_a_tuple(self):
        problem = lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0],
                     start=np.array([1, 0]))
        assert problem.start == (1, 0)


class TestHandCases:
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

    def test_infeasible(self):
        # x <= -1 with x >= 0
        solution = solve(lp([1.0], [[1.0]], [-1.0]))
        assert solution.status is LpStatus.INFEASIBLE

    def test_phase_one_feasible(self):
        # x >= 1 (written as -x <= -1) and x <= 3
        solution = solve(lp([1.0], [[-1.0], [1.0]], [-1.0, 3.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value - 3.0) < 1e-9
        solution = solve(lp([-1.0], [[-1.0], [1.0]], [-1.0, 3.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value + 1.0) < 1e-9

    def test_phase_one_equality_pair(self):
        # x + y == 1 as two inequalities; maximize 2x + y -> x=1, y=0
        solution = solve(lp([2.0, 1.0],
                            [[1.0, 1.0], [-1.0, -1.0]],
                            [1.0, -1.0]))
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value - 2.0) < 1e-9

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
        oracle = vertex_enum_max(problem.objective, problem.constraint_matrix,
                                 problem.rhs)
        assert abs(solution.objective_value - oracle) < 1e-9

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
        oracle = vertex_enum_max(problem.objective, problem.constraint_matrix,
                                 problem.rhs)
        assert abs(solution.objective_value - oracle) < 1e-9

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

    @pytest.mark.xfail(strict=True, reason="tolerances are absolute: a column "
                       "scaled near 1e-14 never enters, so the solver stops at 0")
    def test_column_far_below_the_tolerances(self):
        # The best vertex needs x2 near 1e14; its reduced cost stays below
        # FEASIBILITY_TOL, so the solver reports OPTIMAL at x = 0.
        problem = lp([2.0, 0.0, 0.0],
                     [[2.0, -2.0, 0.0],
                      [1.0, 2.0, -2e-14],
                      [2.0, 0.0, -1e-14],
                      [2.0, -1.0, 1e-14],
                      [2.0, -2.0, 1e-14]],
                     [0.0, 1.0, 0.0, 1.0, 1.0])
        oracle = vertex_enum_max(problem.objective, problem.constraint_matrix,
                                 problem.rhs)
        assert abs(oracle - 1.2) < 1e-9
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        assert abs(solution.objective_value - oracle) < 1e-9


class TestOracleEquivalence:
    def test_random_3x3(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            problem = random_bounded_lp(rng, 3, 2)
            solution = solve(problem)
            assert solution.status is LpStatus.OPTIMAL
            oracle = vertex_enum_max(problem.objective,
                                     problem.constraint_matrix, problem.rhs)
            assert abs(solution.objective_value - oracle) < 1e-9

    def test_random_with_negative_rhs(self):
        # Exercises phase 1 on feasible and infeasible instances alike;
        # integer data keeps the feasibility boundary unambiguous.
        rng = np.random.default_rng(11)
        statuses = set()
        for _ in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-2, 3, size=m).astype(float)
            a = np.vstack([a, np.ones((1, n))])
            b = np.concatenate([b, [3.0]])
            c = rng.integers(-3, 4, size=n).astype(float)
            problem = lp(c, a, b)
            solution = solve(problem)
            statuses.add(solution.status)
            oracle = vertex_enum_max(c, a, b)
            if solution.status is LpStatus.OPTIMAL:
                assert oracle is not None
                assert abs(solution.objective_value - oracle) < 1e-9
            else:
                assert solution.status is LpStatus.INFEASIBLE
                assert oracle is None
        assert LpStatus.OPTIMAL in statuses and LpStatus.INFEASIBLE in statuses

    def test_degenerate_structures(self):
        # zero rhs entries, duplicated rows, and implied equalities exercise
        # degenerate pivots and phase-1 redundancy handling
        rng = np.random.default_rng(2718)
        for trial in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-1, 3, size=m).astype(float)
            if trial % 3 == 0:
                b[rng.integers(0, m)] = 0.0
            if trial % 4 == 0 and m >= 2:
                a[1], b[1] = a[0], b[0]
            if trial % 5 == 0 and m >= 2:
                a[1], b[1] = -a[0], -b[0]
            a = np.vstack([a, np.ones((1, n))])
            b = np.concatenate([b, [3.0]])
            problem = lp(rng.integers(-3, 4, size=n).astype(float), a, b)
            solution = solve(problem)
            oracle = vertex_enum_max(problem.objective, a, b)
            if solution.status is LpStatus.OPTIMAL:
                assert oracle is not None
                assert abs(solution.objective_value - oracle) < 1e-9
            else:
                assert solution.status is LpStatus.INFEASIBLE
                assert oracle is None

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
    """A start basis is returned only when its vertex passes the simplex's
    optimality test; any other start gives the cold solve's result."""

    @staticmethod
    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    @pytest.fixture
    def no_pivoting(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_run_simplex", self.no_simplex)

    @pytest.mark.parametrize("c, a, b, start, x, path", [
        # x0 + x1 <= 1 and x0 <= 0.3, both tight at the optimum
        ([2.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.3], (1, 0), [0.3, 0.7], "certified"),
        # x0 >= 1 would need phase 1 from the slack basis
        ([1.0, 2.0], [[-1.0, 0.0], [1.0, 1.0]], [-1.0, 3.0], (0, 1), [1.0, 2.0], "certified"),
        # (1, 1) is feasible, but x1 <= 1 has dual -1: slack 1 replaces x1,
        # and (x0, s1) = (1, 1) certifies (x1 prices out at -1)
        ([1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], (0, 1), [1.0, 0.0], "repaired"),
    ], ids=["shared-budget", "negative-rhs", "repaired-slack"])
    def test_optimal_start_is_returned_without_pivoting(self, no_pivoting, c, a, b,
                                                        start, x, path):
        problem = lp(c, a, b, start=start)
        solution = solve(problem)
        assert solution.status is LpStatus.OPTIMAL
        assert (solution.path, solution.pivots) == (path, 0)
        assert solution.x.tolist() == pytest.approx(x, abs=1e-15)
        assert solution.objective_value == float(problem.objective @ solution.x)

    @pytest.mark.parametrize("c, a, b, start, path", [
        # x0 + x1 = 1 and x0 - x1 = 2 meet at (1.5, -0.5)
        ([2.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 2.0], (0, 1), "pivoted"),
        # (1, 1) is feasible, but loosening x1 <= 1 gains (its dual is -1);
        # the repair finds the cold solve's vertex
        ([1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], (0, 1), "repaired"),
        # x0 = 1 is feasible, but x1 prices out at 2 - 1 = 1
        ([1.0, 2.0], [[1.0, 1.0]], [1.0], (0,), "pivoted"),
        # the two rows are parallel: no basis
        ([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], (0, 1), "pivoted"),
        # needs phase 1 (x0 >= 1), and the start vertex (1, -1) is negative
        ([-1.0, -1.0], [[-1.0, 0.0], [1.0, -1.0]], [-1.0, 2.0], (0, 1), "pivoted"),
        # (0, 0.5) has duals (-0.5, 1); after slack 0 replaces x0, the
        # vertex (s0, x1) = (0, 0.5) has duals (0, 0.5) and x0 prices out at
        # 2 - 0.5 = 1.5
        ([2.0, 1.0], [[-2.0, 2.0], [1.0, 2.0]], [1.0, 1.0], (0, 1), "pivoted"),
        # (0, 2) has duals (-1, 0); after slack 0 replaces x0, the vertex
        # (s0, x1) = (0, 2) has duals (0, -1): a new negative dual
        ([1.0, -1.0], [[-1.0, 1.0], [2.0, 1.0]], [2.0, 2.0], (0, 1), "pivoted"),
        # the vertex (1, 1) is finite and nonnegative, but its first dual
        # -1e200 / 1e-200 overflows to -inf
        ([-1e200, 1.0], [[1e-200, 0.0], [0.0, 1.0]], [1e-200, 1.0], (0, 1), "pivoted"),
        # the vertex (2, -0.0) is finite and nonnegative, but its first dual
        # (2^500 - 1) / 2^-600 overflows to +inf
        ([2.0 ** 500, 1.0], [[2.0 ** -600, 0.0], [1.0, 1.0]], [2.0 ** -599, 2.0], (0, 1),
         "pivoted"),
        # 1e200 / 1e-200 overflows: the vertex is (inf, 1)
        ([-1.0, 1.0], [[1e-200, 0.0], [0.0, 1.0]], [1e200, 1.0], (0, 1), "pivoted"),
        # back substitution meets inf - inf: the vertex is (nan, nan, inf)
        ([-1.0, -1.0, 1.0], [[1.0, 1.0, 1.0], [0.0, 1e-200, 0.0], [0.0, 0.0, 1e-200]],
         [1.0, 1e200, 1e200], (0, 1, 2), "pivoted"),
    ], ids=["primal-infeasible", "dual-infeasible-slack", "dual-infeasible-column",
            "singular", "phase-one", "repair-prices-out", "repair-dual-negative",
            "dual-minus-inf", "dual-plus-inf", "vertex-inf", "vertex-nan"])
    def test_failed_certificate_falls_back_to_the_cold_solve(self, c, a, b, start, path):
        problem = lp(c, a, b, start=start)
        warm = solve(problem)
        cold = solve(dataclasses.replace(problem, start=None))
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert (warm.path, cold.path) == (path, "pivoted")
        assert cold.pivots > 0
        assert warm.pivots == (cold.pivots if path == "pivoted" else 0)
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.objective_value == cold.objective_value
        oracle = vertex_enum_max(problem.objective, problem.constraint_matrix,
                                 problem.rhs)
        assert abs(warm.objective_value - oracle) < 1e-9

    def test_stacked_certificate_matches_the_two_solve_reference(self):
        # Random starts whose vertex is often nonnegative, with some entries
        # scaled by 1e±160 so that vertices and duals also overflow to
        # infinity or NaN: every outcome, rejections included, is the same.
        rng = np.random.default_rng(8)
        outcomes = set()
        for _ in range(2000):
            m = int(rng.integers(1, 6))
            n = m + int(rng.integers(0, 3))
            scale = 10.0 ** (rng.choice([0, 0, 0, -160, 160], size=(m, n))
                             * (rng.random((m, n)) < 0.25))
            a = rng.uniform(-1.0, 1.0, (m, n)) * scale * (rng.random((m, n)) < 0.85)
            start = tuple(int(j) for j in rng.permutation(n)[:m])
            vertex = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.8)
            c = rng.uniform(-0.5, 1.0, n) * 10.0 ** rng.choice([0, 0, 0, 160], size=n)
            with np.errstate(all="ignore"):   # overflows are part of the draw
                b = a[:, list(start)] @ vertex + rng.uniform(-0.01, 0.05, m)
                if not np.isfinite(b).all():
                    continue
                problem = lp(c, a, b, start=start)
                stacked = lp_module._certified_start(problem)
                reference = two_solve_certificate(problem)
            if reference is None:
                assert stacked is None
            else:
                assert stacked is not None and stacked[1] == reference[1]
                assert stacked[0].tobytes() == reference[0].tobytes()
            outcomes.add(None if stacked is None else stacked[1])
        assert outcomes == {None, "certified", "repaired"}

    @pytest.mark.parametrize("c, a, b, start, status", [
        ([1.0], [[-1.0]], [1.0], (0,), LpStatus.UNBOUNDED),
        ([1.0], [[1.0]], [-1.0], (0,), LpStatus.INFEASIBLE),
    ], ids=["unbounded", "infeasible"])
    def test_non_optimal_status_survives_a_start(self, c, a, b, start, status):
        assert solve(lp(c, a, b, start=start)).status is status

    def test_throughput_lp_certifies_without_pivoting(self, monkeypatch):
        # A pinned N=6 instance in the benchmark's regime whose all-slots-basic
        # vertex is optimal: a certificate that never holds fails here.
        problem = throughput_lp(random_instance(seed=6, n_users=6, battery_max=0.001),
                                [3, 1, 4, 6, 5, 2])
        cold = solve(dataclasses.replace(problem, start=None))
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
        cold = solve(dataclasses.replace(problem, start=None))
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
        oracle = vertex_enum_max(problem.objective, problem.constraint_matrix, problem.rhs)
        assert solution.objective_value == pytest.approx(oracle, rel=1e-12)
