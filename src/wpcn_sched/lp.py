"""Small dense linear-program solver: maximize c.x subject to A.x <= b, x >= 0.

A two-phase tableau simplex with Bland's anti-cycling rule. The throughput
solver's LPs have one row per user plus the frame budget (2 to about 100
rows), so a dense tableau with explicit tolerances beats pulling in an
external solver: the pivot path is deterministic and every numerical failure
is surfaced. Each pivot's row work (the masked rank-1 elimination, Bland's
entering scan, the minimum-ratio test and its ties) is numpy array operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12   # degenerate min-ratio ties resolved by Bland's rule
_MAX_ITERATIONS = 100_000  # Bland's rule terminates; guard against bugs


class NumericalBreakdown(RuntimeError):
    """No acceptable pivot: every candidate is below the pivot tolerance."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  constraint_matrix . x <= rhs, x >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.constraint_matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective and rhs must be vectors, constraint_matrix a matrix")
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: A is {a.shape}, c has {c.size}, b has {b.size}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("all entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    rows = tableau[:, col] != 0.0   # rows with nothing to eliminate are left untouched
    rows[row] = False
    rows = rows.nonzero()[0]        # indexed twice below, where indices beat a mask
    tableau[rows] -= tableau[rows, col, None] * tableau[row]
    basis[row] = col


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Minimum-ratio row for entering ``col``; ties go to the smallest basic
    variable index (Bland). ``None`` means the column is unbounded.

    Rows whose pivot element is positive but below PIVOT_TOL are never
    eligible; if only such rows exist the problem cannot be told apart from
    unbounded, so we refuse to guess.
    """
    column = tableau[:, col]
    candidates = (column > PIVOT_TOL).nonzero()[0]
    if not candidates.size:
        if np.any(column > 0.0):
            raise NumericalBreakdown(
                f"entering column {col}: only pivots below {PIVOT_TOL} available")
        return None
    ratios = tableau[candidates, -1] / column[candidates]
    tied = candidates[ratios <= ratios.min() + _RATIO_TIE_TOL]
    return int(tied[basis[tied].argmin()])


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray,
                 enterable: np.ndarray) -> bool:
    """Pivot until optimal (returns True) or unbounded (returns False)."""
    for _ in range(_MAX_ITERATIONS):
        reduced = costs - costs[basis] @ tableau[:, :-1]
        improving = (enterable & (reduced > FEASIBILITY_TOL)).nonzero()[0]
        if not improving.size:
            return True
        entering = int(improving[0])  # Bland: smallest improving index
        leaving = _leaving_row(tableau, basis, entering)
        if leaving is None:
            return False
        _pivot(tableau, basis, leaving, entering)
    raise NumericalBreakdown("iteration limit reached; simplex is not converging")


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silently absorbs a numerical failure.

    Returns a basic feasible optimum (status OPTIMAL with ``x`` and
    ``objective_value``), or status UNBOUNDED / INFEASIBLE.

    Raises:
        NumericalBreakdown: a required pivot falls below PIVOT_TOL with no
            alternative available.
    """
    a = problem.constraint_matrix
    b = problem.rhs
    c = problem.objective
    m, n = a.shape

    # Rows with negative rhs are negated (flipping their slack sign) and get
    # an artificial variable, so the initial basis is always feasible.
    negative = b < 0.0
    art_rows = np.where(negative)[0]
    n_art = art_rows.size
    width = n + m + n_art + 1
    tableau = np.zeros((m, width))
    tableau[:, :n] = np.where(negative[:, None], -a, a)
    tableau[np.arange(m), n + np.arange(m)] = np.where(negative, -1.0, 1.0)
    tableau[art_rows, n + m + np.arange(n_art)] = 1.0
    tableau[:, -1] = np.abs(b)

    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)

    if n_art:
        phase1_costs = np.zeros(width - 1)
        phase1_costs[n + m:] = -1.0  # maximize -(sum of artificials)
        enterable = np.ones(width - 1, dtype=bool)
        enterable[n + m:] = False    # artificials may only leave
        bounded = _run_simplex(tableau, basis, phase1_costs, enterable)
        assert bounded, "phase 1 objective is bounded by construction"
        if float(phase1_costs[basis] @ tableau[:, -1]) < -FEASIBILITY_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover zero-valued artificials out of the basis; a row
        # with no usable pivot is a redundant constraint and is dropped.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n + m:
                usable = (np.abs(tableau[r, :n + m]) > PIVOT_TOL).nonzero()[0]
                if usable.size:
                    _pivot(tableau, basis, r, int(usable[0]))
                else:
                    keep[r] = False
        tableau = np.hstack([tableau[keep, :n + m], tableau[keep, -1:]])
        basis = basis[keep]

    costs = np.concatenate([c, np.zeros(m)])
    enterable = np.ones(n + m, dtype=bool)
    if not _run_simplex(tableau, basis, costs, enterable):
        return LpSolution(status=LpStatus.UNBOUNDED)

    full = np.zeros(n + m)
    full[basis] = tableau[:, -1]
    x = full[:n]
    return LpSolution(status=LpStatus.OPTIMAL, x=x,
                      objective_value=float(c @ x))
