"""Sum-throughput maximization over a unit scheduling frame.

Transmission order matters because later slots leave more time to harvest.
For a fixed order the time allocation is a linear program; the exact
solution enumerates every order (kept as an oracle for small instances).
The max-rate-first heuristic instead fills the frame from the back,
granting the highest-rate users the late, energy-rich slots. The order
search and the slot layout are shared with the minimum-length solvers:
:func:`model.best_order` and :func:`model.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .model import NetworkInstance, Schedule, best_order, check_order, harvest_rate, layout, rate

FRAME_LENGTH = 1.0  # normalized frame; throughput scales linearly with it


class LpFailure(RuntimeError):
    """The time-allocation LP did not come back optimal."""


@dataclass(frozen=True)
class StmSolution:
    """Frame allocation, total throughput in bits, and who got airtime."""

    schedule: Schedule
    throughput: float
    scheduled_users: tuple[int, ...]


def mrsa(instance: NetworkInstance) -> StmSolution:
    """Max-rate-first heuristic.

    Users are visited in decreasing rate order (ties by ascending index).
    Each gets the largest affordable slice of the still-unallocated time,
    counting the energy it will have harvested by the end of that time, and
    is placed at the back of the remaining frame so that higher-rate users
    transmit later. Users whose rate is zero get no airtime. Whatever time
    is left over becomes the leading unallocated interval.
    """
    params = instance.params
    rates = [rate(params, u) for u in instance.users]
    order = sorted(range(1, instance.n_users + 1),
                   key=lambda i: (-rates[i - 1], i))

    remaining = FRAME_LENGTH
    granted: list[tuple[int, float]] = []  # rate-descending order
    for i in order:
        if rates[i - 1] == 0.0:
            break  # rate-descending order: nobody left can carry a bit
        user = instance.users[i - 1]
        energy = user.initial_energy + harvest_rate(params, user) * remaining
        tau = min(energy / params.p_max, remaining)
        granted.append((i, tau))
        remaining -= tau
        if remaining == 0.0:
            break

    schedule = layout(remaining, [(i, tau) for i, tau in reversed(granted) if tau > 0.0])
    throughput = sum((tau * rates[i - 1] for i, tau in granted), 0.0)
    scheduled = tuple(sorted(s.user for s in schedule.slots))
    return StmSolution(schedule=schedule, throughput=throughput, scheduled_users=scheduled)


def throughput_lp(instance: NetworkInstance, order: Sequence[int]) -> lp.LpProblem:
    """Time-allocation LP for a fixed transmission order.

    Variables are [tau0, tau_order[0], ..., tau_order[-1]]. Maximize the
    rate-weighted transmission times subject to the frame budget and, per
    user, spending no more than battery plus what is harvested by the end
    of its own slot. The start basis guesses the usual optimum: every
    variable basic, so the frame is full and every user spends all it has.
    """
    params = instance.params
    users = [instance.users[i - 1] for i in order]
    c = np.array([0.0] + [rate(params, u) for u in users])
    b = np.array([FRAME_LENGTH] + [u.initial_energy for u in users])
    earned = np.array([0.0] + [-harvest_rate(params, u) for u in users])

    # Row k >= 1 spends p_max in its own slot and earns what is harvested
    # during tau0 and every slot up to its own; row 0 is the frame budget
    # tau0 + sum tau_i <= frame.
    k = np.arange(c.size)
    a = np.where(k <= k[:, None], earned[:, None], 0.0)
    a[0] = 1.0
    a.ravel()[c.size + 1::c.size + 1] += params.p_max   # diagonal below row 0
    return lp.LpProblem(objective=c, constraint_matrix=a, rhs=b,
                        start=tuple(range(c.size)))


def fixed_order_stm(instance: NetworkInstance, order: Sequence[int]) -> StmSolution:
    """Optimal time allocation for a fixed transmission order, via the LP.

    Raises:
        LpFailure: the solver reports anything but an optimum (the zero
            allocation is always feasible, so this indicates a solver
            problem and is never absorbed).
    """
    check_order(order, instance.n_users)
    problem = throughput_lp(instance, order)
    solution = lp.solve(problem)
    if solution.status is not lp.LpStatus.OPTIMAL:
        raise LpFailure(f"time-allocation LP came back {solution.status.value}")

    x = solution.x.tolist()
    scheduled, pairs = [], []
    throughput = 0.0
    for i, d, r in zip(order, x[1:], problem.objective[1:].tolist()):  # the LP's per-slot rates
        if d > 0.0:
            scheduled.append(i)
            pairs.append((i, d))
            throughput += d * r
    schedule = layout(max(0.0, x[0]), pairs)
    scheduled.sort()
    return StmSolution(schedule=schedule, throughput=throughput,
                       scheduled_users=tuple(scheduled))


def brute_force_stm(instance: NetworkInstance) -> StmSolution:
    """Exact oracle: best fixed-order allocation over all transmission orders.

    Ties break toward the lexicographically smallest order. Only for small
    instances.

    Raises:
        TooLarge: more than BRUTE_FORCE_LIMIT users.
    """
    return best_order(instance, fixed_order_stm, lambda solution: solution.throughput)
