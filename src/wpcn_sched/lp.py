"""Small dense linear-program solver: maximize c.x subject to A.x <= b, x >= 0.

A problem may name a candidate optimal basis (``LpProblem.start``: one
structural column per constraint row). ``solve`` first certifies it: it
solves the square basis system for the vertex and its duals, and returns
that vertex when it is nonnegative and no nonbasic reduced cost exceeds
FEASIBILITY_TOL, the simplex's own optimality test. The throughput LPs of
the STM solver almost always have such a vertex (every slot basic, every
row tight), and one certificate costs two small dense solves where the
simplex would take one pivot per row. When only some duals fail (are
negative), each such row's column leaves the basis for the row's slack and
the result is certified once more: in a throughput LP, those users get no
time. A singular basis or any other failure falls back to the simplex
below, started from the slack basis, so the result never depends on the
guess being right.

The simplex is a two-phase tableau method with Bland's anti-cycling rule.
The solver's LPs have one row per user plus the frame budget (2 to about
100 rows), so a dense tableau with explicit tolerances beats pulling in an
external solver: every numerical failure is surfaced. The reduced costs
live in the tableau's last row, which each pivot updates with the same
rank-1 elimination as every other row, so they are priced from scratch
only at the start of a phase. Phase 1 ends by driving zero-valued
artificials out of the basis; every row has its own slack column, so a
pivot for that exists, and its absence is a NumericalBreakdown, never a
dropped row."""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12   # degenerate min-ratio ties resolved by Bland's rule
_RESIDUE_TOL = 1e-14     # relative to a column's scale: round-off, not a pivot
_MAX_ITERATIONS = 100_000  # Bland's rule terminates; guard against bugs


class NumericalBreakdown(RuntimeError):
    """No acceptable pivot: every candidate is below the pivot tolerance."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  constraint_matrix . x <= rhs, x >= 0.

    ``start``, if given, is a guess at an optimal basis: one distinct
    structural column per constraint row, so every row is tight at its
    vertex. ``solve`` certifies it, or its repair, before pivoting and
    ignores it otherwise; it never changes which problem is solved.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray
    start: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.constraint_matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective and rhs must be vectors, constraint_matrix a matrix")
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: A is {a.shape}, c has {c.size}, b has {b.size}")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("all entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)
        if self.start is not None:
            start = tuple(map(operator.index, self.start))
            m, n = a.shape
            if len(start) != m or len(set(start)) != m or not all(0 <= j < n for j in start):
                raise ValueError(f"start must name {m} distinct columns in [0, {n}), "
                                 f"got {self.start!r}")
            object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class LpSolution:
    """``path``: "certified" (the start), "repaired" (its repair) or "pivoted"."""

    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    path: str = "pivoted"


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    # Rows with a zero in the pivot column subtract an exact zero, which can
    # only flip the sign of a zero; that beats selecting the rows to update.
    tableau -= np.multiply.outer(tableau[:, col], pivot_row)
    tableau[row] = pivot_row
    basis[row] = col


def _leaving_row(tableau: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    """Minimum-ratio row for entering ``col``; ties go to the smallest basic
    variable index (Bland). ``None`` means the column is unbounded.

    Rows whose pivot element is positive but below PIVOT_TOL are never
    eligible. If only such rows exist, entries of at most _RESIDUE_TOL times
    the column's largest magnitude are round-off left by earlier pivots (a
    zero in exact arithmetic), so the column is unbounded; any larger one may
    be a genuine tiny pivot, and we refuse to guess.
    """
    column = tableau[:-1, col]
    candidates = (column > PIVOT_TOL).nonzero()[0]
    if candidates.size:
        ratios = tableau[candidates, -1] / column[candidates]
        # ratios[argmin] is ratios.min() without its Python-level wrapper
        tied = candidates[ratios <= ratios[ratios.argmin()] + _RATIO_TIE_TOL]
        if tied.size == 1:
            return int(tied[0])
        return int(tied[basis[tied].argmin()])
    if (column > _RESIDUE_TOL * np.abs(column).max(initial=0.0)).any():
        raise NumericalBreakdown(
            f"entering column {col}: only pivots below {PIVOT_TOL} available")
    return None


def _entering_column(reduced: np.ndarray) -> int | None:
    """Bland's entering column: the smallest index with an improving reduced
    cost, or ``None`` at an optimum."""
    improving = reduced > FEASIBILITY_TOL
    entering = int(improving.argmax())
    return entering if improving[entering] else None


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, n_enterable: int) -> bool:
    """Pivot until optimal (returns True) or unbounded (returns False).

    The objective row must hold the reduced costs of the current basis;
    only the first ``n_enterable`` columns may enter.
    """
    reduced = tableau[-1, :n_enterable]   # a view: each pivot updates it
    for _ in range(_MAX_ITERATIONS):
        entering = _entering_column(reduced)
        if entering is None:
            return True
        leaving = _leaving_row(tableau, basis, entering)
        if leaving is None:
            return False
        _pivot(tableau, basis, leaving, entering)
    raise NumericalBreakdown("iteration limit reached; simplex is not converging")


def _certified_start(problem: LpProblem) -> tuple[np.ndarray, str] | None:
    """The vertex of ``problem.start`` or of its repair, with the path that
    passed the simplex's own optimality test ("certified" or "repaired"),
    else ``None``.

    The vertex is x_B = B^-1 b with every nonbasic variable at zero. It must
    be finite and nonnegative, and with duals y = B^-T c_B every nonbasic
    reduced cost (-y for the slacks, c_j - y.A_j for the structural columns
    outside the basis) must be at most FEASIBILITY_TOL. The basic columns'
    reduced costs are zero in exact arithmetic; their round-off residue
    grows with the data's scale, so they are not tested. A start that fails
    only on duals below -FEASIBILITY_TOL is repaired once, as below.
    """
    a = problem.constraint_matrix
    c = problem.objective
    cols = np.array(problem.start, dtype=np.intp)   # the basic structural columns...
    rows = slice(None)                              # ...and the rows they are basic in
    basis_matrix = a[:, cols]
    basic_costs = c[cols]
    path = "certified"
    while True:
        try:
            x_basic = np.linalg.solve(basis_matrix, problem.rhs)
            # min >= 0 and max < inf: all entries finite and nonnegative (the
            # initial 0 covers m = 0). A NaN fails every comparison.
            if not 0.0 <= x_basic.min(initial=0.0) <= x_basic.max(initial=0.0) < np.inf:
                return None
            duals = np.linalg.solve(basis_matrix.T, basic_costs)
        except np.linalg.LinAlgError:
            return None
        lowest = duals.min(initial=0.0)
        if not -np.inf < lowest <= duals.max(initial=0.0) < np.inf:
            return None
        reduced = c - duals @ a
        reduced[cols] = 0.0
        if not (reduced <= FEASIBILITY_TOL).all():
            return None
        if lowest >= -FEASIBILITY_TOL:
            x = np.zeros(c.size)
            x[cols] = x_basic[rows]
            return x, path
        if path == "repaired":
            return None
        # Repair: each negative-dual row's column leaves for the row's slack
        # (basis column e_i, cost 0), and the test runs once more.
        path = "repaired"
        dropped = duals < -FEASIBILITY_TOL
        rows = (~dropped).nonzero()[0]
        cols = cols[rows]
        basis_matrix[:, dropped] = 0.0
        basis_matrix[dropped, dropped] = 1.0
        basic_costs[dropped] = 0.0


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silently absorbs a numerical failure.

    Returns a basic feasible optimum (status OPTIMAL with ``x`` and
    ``objective_value``), or status UNBOUNDED / INFEASIBLE.

    A ``problem.start`` basis whose vertex, or whose repair from negative
    duals, is certified optimal is returned without pivoting. Otherwise (no
    start, a singular basis, a negative vertex, an improving reduced cost or
    a failed repair) the two-phase simplex runs from the slack basis exactly
    as it does for a problem without a start. ``LpSolution.path`` says which
    path ran.

    The tolerances are absolute, not scaled to the data: a reduced cost
    must exceed FEASIBILITY_TOL to enter and a pivot must exceed PIVOT_TOL.
    Keep the data scaled near 1: a variable whose column entries are all
    far below the tolerances keeps a reduced cost below FEASIBILITY_TOL and
    never enters, so an LP that needs it can come back OPTIMAL below its
    true optimum.

    Raises:
        NumericalBreakdown: a required pivot falls below PIVOT_TOL with no
            alternative available.
    """
    a = problem.constraint_matrix
    b = problem.rhs
    c = problem.objective
    m, n = a.shape
    if problem.start is not None:
        certified = _certified_start(problem)
        if certified is not None:
            x, path = certified
            return LpSolution(status=LpStatus.OPTIMAL, x=x,
                              objective_value=float(c @ x), path=path)

    # Rows with negative rhs are negated (flipping their slack sign) and get
    # an artificial variable, so the initial basis is always feasible. The
    # last row is the objective row.
    art_rows = (b < 0.0).nonzero()[0]
    n_art = art_rows.size
    width = n + m + n_art + 1
    tableau = np.zeros((m + 1, width))
    tableau[:m, :n] = a
    tableau.ravel()[n:m * width:width + 1] = 1.0   # slack r sits in column n + r
    tableau[:m, -1] = np.abs(b)
    basis = n + np.arange(m)

    if n_art:
        tableau[art_rows, :-1] *= -1.0
        tableau[art_rows, n + m + np.arange(n_art)] = 1.0
        basis[art_rows] = n + m + np.arange(n_art)
        phase1_costs = np.zeros(width - 1)
        phase1_costs[n + m:] = -1.0  # maximize -(sum of artificials)
        tableau[-1, :-1] = phase1_costs - phase1_costs[basis] @ tableau[:-1, :-1]
        bounded = _run_simplex(tableau, basis, n + m)  # artificials may only leave
        assert bounded, "phase 1 objective is bounded by construction"
        if float(phase1_costs[basis] @ tableau[:-1, -1]) < -FEASIBILITY_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover zero-valued artificials out of the basis. Every row
        # has its own slack column, so in exact arithmetic a pivot exists.
        for r in (basis >= n + m).nonzero()[0]:
            usable = np.abs(tableau[r, :n + m]) > PIVOT_TOL
            col = int(usable.argmax())
            if not usable[col]:
                raise NumericalBreakdown(
                    f"row {r}: no pivot above {PIVOT_TOL} drives its artificial out")
            _pivot(tableau, basis, r, col)
        costs = np.zeros(width - 1)
        costs[:n] = c
        tableau[-1, :-1] = costs - costs[basis] @ tableau[:-1, :-1]
    else:
        tableau[-1, :n] = c  # the all-slack basis costs nothing: no pricing

    if not _run_simplex(tableau, basis, n + m):  # artificial columns never enter
        return LpSolution(status=LpStatus.UNBOUNDED)

    full = np.zeros(n + m)
    full[basis] = tableau[:-1, -1]
    x = full[:n]
    return LpSolution(status=LpStatus.OPTIMAL, x=x,
                      objective_value=float(c @ x))
