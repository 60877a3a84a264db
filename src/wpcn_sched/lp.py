"""Small dense linear-program solver: maximize c.x subject to A.x <= b, x >= 0,
where b >= 0 (the frame length and the batteries, in the throughput LPs).

A problem may name a candidate optimal basis (``LpProblem.start``: one
structural column per constraint row). ``solve`` first certifies it: it
solves the square basis system for the vertex and its duals, and returns
that vertex when it is nonnegative and no nonbasic reduced cost exceeds
FEASIBILITY_TOL, the simplex's own optimality test. The throughput LPs of
the STM solver almost always have such a vertex (every slot basic, every
row tight), and one certificate costs one stacked LAPACK solve of the
basis system and its transpose, where the simplex would take one pivot per
row. When only some duals fail (are negative), each such row's column
leaves the basis for the row's slack and the result is certified once more:
in a throughput LP, those users get no time. A singular basis or any other
failure falls back to the simplex below, started from the slack basis, so
the result never depends on the guess being right.

The simplex is a one-phase tableau method with Bland's anti-cycling rule
(Bland, Math. Oper. Res. 1977): b >= 0 makes the slack basis a feasible
start. The solver's LPs have one row per user plus the frame budget (2 to
about 100 rows), so a dense tableau with explicit tolerances beats pulling
in an external solver: every numerical failure is surfaced. The reduced
costs live in the tableau's last row, which starts as c (the slack basis
costs nothing) and which each pivot updates like every other row."""

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
    """The tolerances cannot resolve the LP: a pivot below PIVOT_TOL is the
    only one or would bind first, or a column too small to price was left
    out of the optimum."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  constraint_matrix . x <= rhs, x >= 0,
    with every entry finite and rhs >= 0 (so x = 0 is feasible).

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
        if not np.isfinite(np.concatenate((a.ravel(), b, c))).all():
            raise ValueError("all entries must be finite")
        if min(b.tolist(), default=0.0) < 0.0:   # cheaper than b.min() on 7 rows
            raise ValueError(f"rhs must be >= 0, got {min(b.tolist())!r}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)
        if self.start is not None:
            start = tuple(map(operator.index, self.start))
            m, n = a.shape
            if len(start) != m or len(set(start)) != m or (
                    m and not 0 <= min(start) <= max(start) < n):
                raise ValueError(f"start must name {m} distinct columns in [0, {n}), "
                                 f"got {self.start!r}")
            object.__setattr__(self, "start", start)


@dataclass(frozen=True)
class LpSolution:
    """``path``: "certified" (the start), "repaired" (its repair) or "pivoted".
    ``pivots``: simplex pivots, 0 unless ``path`` is "pivoted"."""

    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    path: str = "pivoted"
    pivots: int = 0


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
    eligible. Entries of at most _RESIDUE_TOL times the column's largest
    magnitude are round-off left by earlier pivots (a zero in exact
    arithmetic); any larger one may be a genuine tiny pivot. If only such
    tiny rows exist, or one of them would bind before the chosen row, we
    refuse to guess: skipping it would step past that row's constraint.
    """
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    eligible = column > PIVOT_TOL
    tiny = ~eligible & (column > _RESIDUE_TOL * np.abs(column).max(initial=0.0))
    candidates = eligible.nonzero()[0]
    if candidates.size:
        ratios = rhs[candidates] / column[candidates]
        # ratios[argmin] is ratios.min() without its Python-level wrapper
        best = ratios[ratios.argmin()]
        if (rhs[tiny] < best * column[tiny]).any():
            raise NumericalBreakdown(
                f"entering column {col}: a pivot below {PIVOT_TOL} would bind first")
        tied = candidates[ratios <= best + _RATIO_TIE_TOL]
        if tied.size == 1:
            return int(tied[0])
        return int(tied[basis[tied].argmin()])
    if tiny.any():
        raise NumericalBreakdown(
            f"entering column {col}: only pivots below {PIVOT_TOL} available")
    return None


def _run_simplex(tableau: np.ndarray, basis: np.ndarray) -> tuple[bool, int]:
    """Pivot until optimal (True) or unbounded (False), and count the pivots.
    The objective row must hold the reduced costs of the current basis."""
    reduced = tableau[-1, :-1]   # a view: each pivot updates it
    for pivots in range(_MAX_ITERATIONS):
        improving = reduced > FEASIBILITY_TOL
        entering = int(improving.argmax())   # Bland: the smallest improving column
        if not improving[entering]:
            return True, pivots
        leaving = _leaving_row(tableau, basis, entering)
        if leaving is None:
            return False, pivots
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
    m = a.shape[0]
    cols = np.array(problem.start, dtype=np.intp)   # the basic structural columns...
    rows = slice(None)                              # ...and the rows they are basic in
    # B x = b and B^T y = c_B as one stacked solve, filled straight from A
    # (start was range-checked, so mode="clip" never clips).
    lhs = np.empty((2, m, m))
    basis = lhs[0]
    a.take(cols, axis=1, out=basis, mode="clip")
    lhs[1] = basis.T
    rhs = np.empty((2, m, 1))
    rhs[0, :, 0] = problem.rhs
    rhs[1, :, 0] = c[cols]
    path = "certified"
    while True:
        try:
            solution = np.linalg.solve(lhs, rhs)[:, :, 0]   # [x_B, y]
        except np.linalg.LinAlgError:
            return None
        # x_B >= 0 and y > -inf by their minima, neither +inf by the joint
        # maximum (the initial 0s cover m = 0). A NaN fails every comparison.
        x_low, lowest = solution.min(axis=1, initial=0.0).tolist()
        if not (0.0 <= x_low and -np.inf < lowest and solution.max(initial=0.0) < np.inf):
            return None
        x_basic = solution[0]
        duals = solution[1]
        reduced = c - duals @ a
        reduced[cols] = 0.0
        if not reduced.max(initial=0.0) <= FEASIBILITY_TOL:
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
        basis[:, dropped] = 0.0
        lhs[1, dropped] = 0.0
        lhs[:, dropped, dropped] = 1.0
        rhs[1, dropped] = 0.0


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silently absorbs a numerical failure.

    Returns a basic optimum (status OPTIMAL with ``x`` and
    ``objective_value``), or status UNBOUNDED; x = 0 is always feasible.

    A ``problem.start`` basis whose vertex, or whose repair from negative
    duals, is certified optimal is returned without pivoting. Otherwise (no
    start, a singular basis, a negative vertex, an improving reduced cost or
    a failed repair) the one-phase simplex runs from the slack basis exactly
    as it does for a problem without a start. ``LpSolution.path`` says which
    path ran.

    The tolerances are absolute, not scaled to the data: a reduced cost
    must exceed FEASIBILITY_TOL to enter and a pivot must exceed PIVOT_TOL.
    Keep the data scaled near 1.

    Raises:
        NumericalBreakdown: a required pivot falls below PIVOT_TOL with no
            alternative available, a row whose pivot falls below PIVOT_TOL
            would bind before the chosen one, or the simplex stops while
            some column's reduced cost, below FEASIBILITY_TOL, exceeds
            FEASIBILITY_TOL times the column's largest entry: the column
            never entered only because its entries are far below the
            tolerances.
    """
    a = problem.constraint_matrix
    c = problem.objective
    m, n = a.shape
    if problem.start is not None:
        certified = _certified_start(problem)
        if certified is not None:
            x, path = certified
            return LpSolution(status=LpStatus.OPTIMAL, x=x,
                              objective_value=float(c @ x), path=path)

    # The slack basis is feasible (b >= 0) and costs nothing, so the last
    # row, the objective row, starts as c with no pricing.
    width = n + m + 1
    tableau = np.zeros((m + 1, width))
    tableau[:m, :n] = a
    tableau.ravel()[n:m * width:width + 1] = 1.0   # slack r sits in column n + r
    tableau[:m, -1] = np.abs(problem.rhs)   # b >= 0: abs turns -0.0 into +0.0
    tableau[-1, :n] = c
    basis = n + np.arange(m)

    optimal, pivots = _run_simplex(tableau, basis)
    if not optimal:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=pivots)
    hidden = tableau[-1, :n] > FEASIBILITY_TOL * np.abs(a).max(axis=0, initial=0.0)
    if hidden.any():
        raise NumericalBreakdown(
            f"column {int(hidden.argmax())}: its reduced cost is below {FEASIBILITY_TOL} "
            "but large next to its entries; rescale the LP")

    full = np.zeros(n + m)
    full[basis] = tableau[:-1, -1]
    x = full[:n]
    return LpSolution(status=LpStatus.OPTIMAL, x=x,
                      objective_value=float(c @ x), pivots=pivots)
