"""Sum-throughput maximization over a unit scheduling frame.

Transmission order matters because later slots leave more time to harvest.
For a fixed order the time allocation is a linear program; the exact
solution enumerates every order (kept as an oracle for small instances).
The max-rate-first heuristic instead fills the frame from the back,
granting the highest-rate users the late, energy-rich slots. The order
search and the slot layout are shared with the minimum-length solvers:
:func:`model.best_order` and :func:`model.layout`. A solution keeps the
slots with positive time as (user, duration) pairs and lays them out only
when its schedule is first read, so the oracle lays out just the winner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import lp
from .model import (BRUTE_FORCE_LIMIT, NetworkInstance, Schedule, best_order, check_order,
                    harvest_rate, layout, rate, shortfalls)

FRAME_LENGTH = 1.0  # normalized frame; throughput scales linearly with it


@dataclass(frozen=True)
class StmSolution:
    """Frame allocation and total throughput in bits.

    ``tau0`` is the leading unallocated time and ``pairs`` the (user,
    duration) of each slot with positive time, in slot order. The schedule
    is laid out from them on first read and kept (:func:`_replayed`, which
    finishes :func:`mrsa` and :func:`brute_force_stm`, hands over the one it
    replayed).
    """

    tau0: float
    pairs: tuple[tuple[int, float], ...]
    throughput: float

    @functools.cached_property
    def schedule(self) -> Schedule:
        """``layout(tau0, pairs)``.

        Raises:
            Infeasible: the frame would end past the largest double.
        """
        return layout(self.tau0, self.pairs)

    @property
    def scheduled_users(self) -> tuple[int, ...]:
        """Users with airtime, ascending."""
        return tuple(sorted(user for user, _ in self.pairs))


def mrsa(instance: NetworkInstance) -> StmSolution:
    """Max-rate-first heuristic.

    Users are visited in decreasing rate order (ties by ascending index).
    Each gets the largest affordable slice of the still-unallocated time,
    counting the energy it will have harvested by the end of that time, and
    is placed at the back of the remaining frame so that higher-rate users
    transmit later. Users whose rate is zero get no airtime. Whatever time
    is left over becomes the leading unallocated interval. A slot of a user
    in :func:`model.shortfalls` (an ulp short of its energy) is shortened
    and the throughput folded in grant order, both by :func:`_replayed`,
    which keeps the laid-out schedule. The rates and harvest rates are the
    instance's own (``NetworkInstance.rates``, ``harvest_rates``).
    """
    params = instance.params
    rates = instance.rates
    harvests = instance.harvest_rates
    order = sorted(range(1, instance.n_users + 1),
                   key=lambda i: (-rates[i - 1], i))

    remaining = FRAME_LENGTH
    granted: list[tuple[int, float]] = []  # rate-descending order
    for i in order:
        if rates[i - 1] == 0.0:
            break  # rate-descending order: nobody left can carry a bit
        user = instance.users[i - 1]
        energy = user.initial_energy + harvests[i - 1] * remaining
        tau = min(energy / params.p_max, remaining)
        granted.append((i, tau))
        remaining -= tau
        if remaining == 0.0:
            break

    pairs = tuple((i, tau) for i, tau in reversed(granted) if tau > 0.0)
    return _replayed(instance, remaining, pairs, grant_order=True)


def _replayed(instance: NetworkInstance, tau0: float, pairs: tuple[tuple[int, float], ...],
              grant_order: bool = False) -> StmSolution:
    """The solution of ``tau0`` and ``pairs`` once every slot replays, with
    its schedule ``layout(tau0, pairs)`` handed over. The slot of a user in
    :func:`model.shortfalls` (an ulp short at large energies) is shortened
    by its deficit over p_max, then by one ulp toward 0, and the time is
    given to tau0, which lowers no other balance; a slot cut to zero leaves
    ``pairs``. The throughput is a left fold of the replayed slots over the
    instance's rates, in slot order or, with ``grant_order``, in
    :func:`mrsa`'s grant order (back to front): each order has pinned bytes.
    """
    p_max = instance.params.p_max
    while True:
        schedule = layout(tau0, pairs)
        cuts = {i: -balance / p_max for i, balance in shortfalls(instance, schedule).items()}
        if not cuts:
            break
        kept = []
        for i, tau in reversed(pairs):   # mrsa's grant order, in which tau0 sums
            if i in cuts:
                shorter = max(0.0, math.nextafter(tau - cuts[i], 0.0))
                tau0 += tau - shorter
                tau = shorter
            if tau > 0.0:
                kept.append((i, tau))
        pairs = tuple(reversed(kept))
    rates = instance.rates
    throughput = 0.0   # a left fold: sum() compensates from Python 3.12 on
    for i, tau in reversed(pairs) if grant_order else pairs:
        throughput += tau * rates[i - 1]
    solution = StmSolution(tau0, pairs, throughput)
    object.__setattr__(solution, "schedule", schedule)   # the property's own value
    return solution


def lp_coefficients(instance: NetworkInstance) -> lp.Staircase:
    """The throughput LP's per-variable data, one entry per variable in
    user-index order after tau0's entry 0: an :class:`lp.Staircase` of the
    objective, the right-hand sides (frame length, then batteries) and the
    negated harvest rates, its input rules run once here. Every order's LP
    is gathered from it.

    The objective is the rates times the power of two that puts the largest
    in [0.5, 1) (all zero rates stay as they are), by ``math.ldexp``, whose
    bits are ``np.ldexp``'s: the LP's absolute tolerances see it near 1
    whatever the units; only exponents change.
    """
    # Not the instance's cached closed forms: the benchmark's traced
    # fixed-order run re-solves instances whose cache its set-up filled, and
    # must still see rate called.
    params = instance.params
    users = instance.users
    rates = [0.0, *(rate(params, u) for u in users)]
    shift = -math.frexp(max(rates))[1]
    return lp.Staircase([math.ldexp(r, shift) for r in rates],
                        [FRAME_LENGTH, *(u.initial_energy for u in users)],
                        [0.0, *(-harvest_rate(params, u) for u in users)], params.p_max)


def throughput_lp(instance: NetworkInstance, order: Sequence[int],
                  table: lp.Staircase | None = None) -> lp.LpProblem:
    """Time-allocation LP for a fixed transmission order.

    Variables are [tau0, tau_order[0], ..., tau_order[-1]]. Maximize the
    rate-weighted transmission times, the rates scaled as in
    :func:`lp_coefficients`, subject to the frame budget and, per
    user, spending no more than battery plus what is harvested by the end
    of its own slot. Row 0 is the frame budget tau0 + sum tau_i <= frame;
    row k >= 1 spends p_max in its own slot and earns what is harvested
    during tau0 and every slot up to its own: the staircase that
    :class:`lp.Staircase` lays out, whose start's duals ``lp`` takes by
    back substitution. The tight start guesses the usual optimum: every
    variable basic, so the frame is full and every user spends all it has.
    ``table`` is ``lp_coefficients(instance)``, computed here when not
    given; the LP is its problem of ``order``, one gather that runs no
    input rule.

    Raises:
        ValueError: ``order`` is not a permutation of the users.
    """
    check_order(order, instance.n_users)
    if table is None:
        table = lp_coefficients(instance)
    return table.problem(order)


def fixed_order_stm(instance: NetworkInstance, order: Sequence[int],
                    table: lp.Staircase | None = None) -> StmSolution:
    """Optimal time allocation for a fixed transmission order, via the LP
    (``table`` as for :func:`throughput_lp`). The throughput is summed in
    slot order from the instance's rates (``NetworkInstance.rates``), so on
    a fresh instance this also computes them: N :func:`model.rate` calls,
    which :func:`model.validate` would make anyway.

    The LP's vertex is returned as it is, not replayed: at large energies a
    slot that spends all the user's energy can land an ulp short of it and
    fail :func:`model.validate`. :func:`brute_force_stm` replays the order
    it picks; replaying every order would lay out each of its N! LPs.

    Raises:
        ValueError: ``order`` is not a permutation of the users.
        NumericalBreakdown: :func:`lp.solve` cannot resolve the LP within
            its tolerances, or reports it unbounded: the frame row bounds
            every throughput LP, so only the tolerances misreading a pivot
            can say so, and it is never absorbed.
    """
    solution = lp.solve(throughput_lp(instance, order, table))
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise lp.NumericalBreakdown("time-allocation LP came back unbounded")

    x = solution.x.tolist()
    rates = instance.rates
    pairs = []
    throughput = 0.0
    for i, d in zip(order, x[1:]):
        if d > 0.0:
            pairs.append((i, d))
            throughput += d * rates[i - 1]
    return StmSolution(max(0.0, x[0]), tuple(pairs), throughput)


def brute_force_stm(instance: NetworkInstance) -> StmSolution:
    """Exact oracle: best fixed-order allocation over all transmission orders.

    Ties break toward the lexicographically smallest order. Only for small
    instances. :func:`lp_coefficients` computes the closed forms and runs
    the LP input rules once per call, and every order's LP is gathered from
    its table with no rule run. Only the winner is laid out, by
    :func:`_replayed` as for :func:`mrsa`: a slot of it that replays an ulp
    short of its energy is shortened, and the throughput is summed from the
    replayed slots in slot order, with the instance's rates
    (``NetworkInstance.rates``, N :func:`model.rate` calls on a fresh
    instance), as :func:`fixed_order_stm` sums it, so an uncut winner keeps
    its bits.

    Raises:
        TooLarge: more than BRUTE_FORCE_LIMIT users.
        NumericalBreakdown: as for :func:`fixed_order_stm`.
    """
    table = None   # best_order raises TooLarge before any order is solved
    if instance.n_users <= BRUTE_FORCE_LIMIT:
        table = lp_coefficients(instance)
    # fixed_order_stm is looked up per call, so a rebound name is honoured
    best = best_order(instance, functools.partial(fixed_order_stm, table=table),
                      lambda solution: solution.throughput)
    return _replayed(instance, best.tau0, best.pairs)
