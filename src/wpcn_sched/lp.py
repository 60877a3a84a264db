"""Small dense linear-program solver: maximize c.x subject to A.x <= b, x >= 0,
where b >= 0 (the frame length and the batteries, in the throughput LPs).

A square problem may ask ``solve`` to try its all-tight start first
(``LpProblem.tight_start``): every structural column basic, so every row is
tight. One LAPACK solve of A x = b gives that vertex, and A^T y = c its
duals: by a second LAPACK solve, or, for the throughput LP's staircase
layout (:class:`Staircase`), by an O(m) back substitution. A staircase
table holds the per-variable data of every column order's LP, and the
input rules run once, on the O(m) values the matrices are made of; each
order's LP is then one gather from it. The vertex is returned when it is
nonnegative and no slack's reduced cost -y exceeds FEASIBILITY_TOL, the
simplex's own optimality test. The STM solver's throughput LPs almost
always pass (the frame is full and every user spends all it has), where
the simplex would take one pivot per row. When only
some duals are negative, each such row's column leaves the basis for the
row's slack (in a throughput LP, those users get no time) and the result is
certified once more; a staircase prices the dropped columns from its layout
in O(m). Any other failure falls back to the simplex below, so
the result never depends on the guess.

Each LAPACK solve (:func:`_lapack_solve`) calls the gesv gufunc that
``numpy.linalg.solve`` runs for a float64 matrix and vector, with the same
signature, so it gives the same bits. On the exact STM oracle's 7 x 7 LPs
``numpy.linalg.solve`` took 4.8 µs, of which its Python wrapper took 3.3
and the gufunc 1.5 (2 vCPUs, numpy 2.4.6); called directly under an error
state, the solve takes 2.9 µs. A singular basis then gives NaN, not
``LinAlgError``, and the finiteness test refuses it.

The simplex is a one-phase tableau method with Bland's anti-cycling rule
(Bland, Math. Oper. Res. 1977): b >= 0 makes the slack basis a feasible
start. The solver's LPs have one row per user plus the frame budget (2 to
about 100 rows), so a dense tableau with explicit tolerances beats pulling
in an external solver: every numerical failure is surfaced. The reduced
costs live in the tableau's last row, which starts as c (the slack basis
costs nothing) and which each pivot updates like every other row."""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg   # numpy-internal: see _lapack_solve

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


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective . x  subject to  constraint_matrix . x <= rhs, x >= 0,
    with every entry finite and rhs >= 0 (so x = 0 is feasible).

    ``tight_start`` (square ``constraint_matrix`` only) guesses that every
    variable is basic and every row tight at the optimum. ``solve`` tries
    that vertex, or its repair, before pivoting; the flag never changes
    which problem is solved. A problem built by :meth:`Staircase.problem`
    carries a mark: its columns' objective, lower and diagonal values as
    Python floats, from which ``solve`` takes the start's duals, and its
    repair's reduced costs, in O(m). The mark is not a field of the
    constructor or the repr, and ``dataclasses.replace`` drops it.
    Problems compare and hash by identity, as solutions do.

    The fields hold float arrays; this constructor keeps the caller's own
    where they already are. It and :class:`Staircase` raise ValueError, in
    this order, on wrong dimensions, on a NaN or infinite entry and on a
    negative rhs entry (-0.0 passes); this one then on ``tight_start`` with
    a non-square matrix.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray
    tight_start: bool = False
    # (objective, lower, diagonal) of a staircase's columns as Python
    # floats, set once by :meth:`Staircase.problem`
    _staircase: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.constraint_matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective and rhs must be vectors, constraint_matrix a matrix")
        _check_inputs(c.tolist(), a.shape, a.ravel().tolist(), b.tolist())
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)
        if self.tight_start and b.size != c.size:
            raise ValueError(f"tight_start needs a square constraint_matrix, got {a.shape}")


class Staircase:
    """Per-variable data of the square ``tight_start`` LPs of every column
    order, with the input rules run once: the throughput LPs of one
    instance, whose transmission orders only move columns.

    In the LP of columns ``(0, *order)`` (:meth:`problem`), the variable j
    in column k has cost objective[j], and row k has bound rhs[j]; row 0 is
    all ones, and row k >= 1 holds lower[j] on and left of the diagonal,
    with p_max added on the diagonal. In a throughput LP, lower[j] is minus
    user j's harvest rate. Variable 0 (tau0) always comes first, so
    ``lower[0]`` is never read. The vectors are kept as tuples of Python
    floats, with the diagonal values lower + p_max (so an overflow is an
    infinity, not a warning).

    Raises:
        ValueError: as the :class:`LpProblem` constructor would for any of
            its LPs, rule for rule: the input rules (:func:`_check_inputs`)
            run on the O(m) values the matrices are made of, lower[1:] and
            lower[1:] + p_max; then on fewer than two variables (tau0 and
            a user).
    """

    def __init__(self, objective: Sequence[float], rhs: Sequence[float],
                 lower: Sequence[float], p_max: float) -> None:
        self.objective, self.rhs, self.lower = tuple(objective), tuple(rhs), tuple(lower)
        self.diagonal = tuple(e + p_max for e in self.lower)
        size = len(self.lower)
        _check_inputs(self.objective, (size, size), self.lower[1:] + self.diagonal[1:], self.rhs)
        if size < 2:
            raise ValueError(f"a staircase needs tau0 and at least one user, got {size} variables")

    def problem(self, order: Sequence[int]) -> LpProblem:
        """The marked ``tight_start`` LP of columns ``(0, *order)``, where
        ``order`` is a permutation of 1..m-1 (not checked).

        Its matrix is one gather (:func:`_staircase_index`) from 0, 1 and
        the columns' lower and diagonal values, with the bytes of the dense
        build. It runs no input rule: every value it reads was checked
        once, by the constructor. The problem keeps the columns' objective,
        lower and diagonal values as its mark. A square LP in the vectors'
        own order is ``problem(range(1, m))``.
        """
        get = operator.itemgetter(0, *order)
        c, lower, diagonal = get(self.objective), get(self.lower), get(self.diagonal)
        size = len(c)
        values = np.array([0.0, 1.0, *lower, *diagonal, *c, *get(self.rhs)])
        problem = LpProblem.__new__(LpProblem)
        vars(problem).update(objective=values[2 + 2 * size:2 + 3 * size],
                             constraint_matrix=values.take(_staircase_index(size)),
                             rhs=values[2 + 3 * size:], tight_start=True,
                             _staircase=(c, lower, diagonal))
        return problem


def _check_inputs(c: Sequence[float], a_shape: tuple[int, ...], a_entries: Sequence[float],
                  b: Sequence[float]) -> None:
    """The LP's input rules, in order: A is len(b) x len(c) (``a_shape``),
    every entry of c, b and ``a_entries`` (those of A not known to be
    finite) is finite, and b >= 0 (-0.0 passes). The three are lists, or
    all three tuples.

    Raises:
        ValueError: the first rule broken.
    """
    if a_shape != (len(b), len(c)):
        raise ValueError(f"inconsistent dimensions: A is {a_shape}, c has {len(c)}, "
                         f"b has {len(b)}")
    if not all(map(math.isfinite, c + b + a_entries)):
        raise ValueError("all entries must be finite")
    if b and min(b) < 0.0:
        raise ValueError(f"rhs must be >= 0, got {min(b)!r}")


@dataclass(frozen=True, eq=False)
class LpSolution:
    """``path``: "certified" (the tight start), "repaired" (its repair) or
    "pivoted".
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
        best = ratios.min()
        if (rhs[tiny] < best * column[tiny]).any():
            raise NumericalBreakdown(
                f"entering column {col}: a pivot below {PIVOT_TOL} would bind first")
        tied = candidates[ratios <= best + _RATIO_TIE_TOL]
        return int(tied[basis[tied].argmin()])
    if tiny.any():
        raise NumericalBreakdown(
            f"entering column {col}: only pivots below {PIVOT_TOL} available")
    return None


def _run_simplex(tableau: np.ndarray, basis: np.ndarray) -> tuple[bool, int]:
    """Pivot until optimal (True) or unbounded (False), and count the pivots.
    The objective row must hold the reduced costs of the current basis."""
    reduced = tableau[-1, :-1]   # a view: each pivot updates it
    if not reduced.size:   # no variables and no rows: nothing can enter
        return True, 0
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


def _hidden(reduced: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Columns of ``a`` whose reduced cost exceeds FEASIBILITY_TOL times the
    column's largest entry: below the absolute tolerance only because the
    column's entries are far below it, so they cannot be priced out."""
    return reduced > FEASIBILITY_TOL * np.abs(a).max(axis=0, initial=0.0)


@functools.lru_cache(maxsize=8)   # each entry is size^2 intp
def _staircase_index(size: int) -> np.ndarray:
    """Read-only index of a staircase's entries into [0, 1, lower,
    lower + p_max]: 1 in row 0, lower[k] left of row k's diagonal,
    lower[k] + p_max on it and 0 right of it."""
    rows, columns = np.indices((size, size))
    index = np.where(columns < rows, 2 + rows, np.where(columns == rows, 2 + size + rows, 0))
    index[:1] = 1
    index.flags.writeable = False
    return index


def _staircase_duals(c: Sequence[float], lower: Sequence[float], diagonal: Sequence[float],
                     kept: range | list[int], frame: bool) -> list[float] | None:
    """y with B^T y = c_B for the basis B of a staircase LP (see
    :class:`Staircase`) that keeps the LP's columns ``kept`` (in
    descending order, each >= 1) and column 0 if ``frame``, and has row j's
    slack as every other column j, so y_j = 0 there (c_j is not read);
    ``None`` on a zero pivot, d_j below or u at column 0.

    Let S_j = y_0 + sum over kept k > j of lower[k] y_k. Column j >= 1 reads
    S_j + d_j y_j = c_j, where d_j = diagonal[j] is the diagonal entry,
    and column 0 reads S_0 = c_0. From the last column back, S_j = sigma +
    u y_0 is affine in y_0, and so is each y_j = alpha_j - beta_j y_0;
    column 0 then fixes y_0.
    """
    alphas = [0.0] * len(c)
    betas = [0.0] * len(c)
    sigma, u = 0.0, 1.0
    try:
        for j in kept:
            e, pivot = lower[j], diagonal[j]
            alphas[j] = alpha = (c[j] - sigma) / pivot
            betas[j] = beta = u / pivot
            sigma += e * alpha
            u -= e * beta
        y0 = (c[0] - sigma) / u if frame else 0.0
    except ZeroDivisionError:
        return None
    y = [alpha - beta * y0 for alpha, beta in zip(alphas, betas)]
    if frame:
        y[0] = y0
    return y


def _staircase_prices_out(c: Sequence[float], lower: Sequence[float],
                          diagonal: Sequence[float], y: list[float], dropped: list[bool]) -> bool:
    """Whether each column j of a staircase LP with ``dropped[j]`` has a
    reduced cost c_j - y.A_j of at most FEASIBILITY_TOL (a NaN fails).

    Column j >= 1 holds 1 in row 0, d_j = diagonal[j] on the diagonal
    and lower[k] in each row k > j; column 0 holds 1 in row 0 and lower[k]
    in every other row. So y.A_j is y_0 + d_j y_j + T_j, where T_j, the sum
    of lower[k] y_k over k > j, is accumulated from the last column back.
    Row 0 makes every column's largest entry at least 1, so the simplex's
    scaled exit rule (:func:`_hidden`) refuses nothing this test passes.
    """
    below = 0.0   # T_j
    for j in range(len(c) - 1, 0, -1):
        if dropped[j] and not c[j] - (y[0] + diagonal[j] * y[j] + below) <= FEASIBILITY_TOL:
            return False
        below += lower[j] * y[j]
    return not dropped[0] or c[0] - (y[0] + below) <= FEASIBILITY_TOL


def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.linalg.solve(a, b)`` for a float64 square ``a`` (any strides)
    and vector ``b``: the same gufunc, signature and error state, less the
    singular-matrix callback, so a singular ``a`` gives NaN and no warning.
    ``_umath_linalg`` is numpy-internal: tests/test_lp.py pins the bytes."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(a, b, signature="dd->d")


def _certified_start(problem: LpProblem) -> tuple[np.ndarray, str] | None:
    """The vertex of the all-tight start or of its repair, with the path that
    passed the simplex's own optimality test ("certified" or "repaired"),
    else ``None``.

    Every variable is basic at the start, so its only nonbasic reduced
    costs are the slacks' -y: it passes when every entry of x = A^-1 b and
    y = A^-T c is finite (``math.isfinite``, so no NaN reaches a
    comparison), min(x) >= 0 and min(y) >= -FEASIBILITY_TOL. x comes from
    one LAPACK solve, a direct call of ``numpy.linalg.solve``'s gesv gufunc
    (:func:`_lapack_solve`: the same bits, at about 60% of the cost on a
    7 x 7 basis); a singular basis gives NaN there, which the finiteness
    test refuses. A staircase (:class:`Staircase`) takes y by
    :func:`_staircase_duals`, an O(m) back substitution on its mark's floats,
    and only on a zero pivot by a LAPACK solve of A^T y = c; any other
    problem always by that solve, so its results are those of two separate
    dense solves. When only duals fail, each row with a negative one trades
    its column for its slack (basis column e_i, cost 0) and the test runs
    once more, now also on the dropped columns' reduced costs c_j - y.A_j,
    held to FEASIBILITY_TOL and to the simplex's exit rule (:func:`_hidden`).
    A staircase computes them from its layout in O(m), on its mark's floats
    (:func:`_staircase_prices_out`), where the exit rule adds nothing; any
    other problem by dense passes over A. The repaired basis is solved by
    LAPACK either way, so x keeps its bits.
    The basic columns' reduced costs are zero in exact arithmetic; their
    round-off residue grows with the data's scale, so they are not tested.
    """
    a = problem.constraint_matrix
    c = problem.objective
    m = c.size
    staircase = problem._staircase
    basis = a
    kept, frame = range(m - 1, 0, -1), m > 0   # the staircase's basic columns
    for path in ("certified", "repaired"):
        # The checks run on Python floats, which cost less than numpy's
        # reductions at 7 rows.
        x = _lapack_solve(basis, problem.rhs)
        x_values = x.tolist()
        if not all(map(math.isfinite, x_values)) or min(x_values, default=0.0) < 0.0:
            return None
        y = None
        if staircase is not None:
            y = _staircase_duals(*staircase, kept, frame)
        if y is None:   # a slack's cost is 0
            costs = c if path == "certified" else np.where(dropped, 0.0, c)
            y = _lapack_solve(basis.T, costs).tolist()
        if not all(map(math.isfinite, y)):
            return None
        if path == "repaired":
            if staircase is not None:
                priced_out = _staircase_prices_out(*staircase, y, flags)
            else:
                reduced = c - np.array(y) @ a
                reduced[~dropped] = 0.0
                priced_out = reduced.max() <= FEASIBILITY_TOL and not _hidden(reduced, a).any()
            if not priced_out:
                return None
            x[dropped] = 0.0   # their slacks are basic in those rows
        if min(y, default=0.0) >= -FEASIBILITY_TOL:
            return x, path
        flags = [dual < -FEASIBILITY_TOL for dual in y]
        dropped = np.array(flags)
        basis = a.copy()
        basis[:, dropped] = 0.0
        basis[dropped, dropped] = 1.0
        kept, frame = [j for j in kept if not flags[j]], not flags[0]
    return None


def solve(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silently absorbs a numerical failure.

    Returns a basic optimum (status OPTIMAL with ``x`` and
    ``objective_value``), or status UNBOUNDED; x = 0 is always feasible.

    With ``problem.tight_start``, a certified all-tight vertex or repair is
    returned without pivoting; otherwise the simplex runs from the slack
    basis exactly as without the flag. ``LpSolution.path`` says which ran.

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
    if problem.tight_start:
        certified = _certified_start(problem)
        if certified is not None:
            x, path = certified
            # c.dot(x) is c @ x (the same BLAS dot) without matmul's ufunc overhead
            return LpSolution(LpStatus.OPTIMAL, x, float(c.dot(x)), path)

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
    hidden = _hidden(tableau[-1, :n], a)
    if hidden.any():
        raise NumericalBreakdown(
            f"column {int(hidden.argmax())}: its reduced cost is below {FEASIBILITY_TOL} "
            "but large next to its entries; rescale the LP")

    full = np.zeros(n + m)
    full[basis] = tableau[:-1, -1]
    x = full[:n]
    return LpSolution(status=LpStatus.OPTIMAL, x=x,
                      objective_value=float(c @ x), pivots=pivots)
