"""Sum-throughput maximization over a unit scheduling frame.

Transmission order matters because later slots leave more time to harvest.
For a fixed order the time allocation is a linear program; the exact
solution enumerates every order (kept as an oracle for small instances).
The max-rate-first heuristic instead fills the frame from the back,
granting the highest-rate users the late, energy-rich slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .model import (
    BRUTE_FORCE_LIMIT,
    NetworkInstance,
    Schedule,
    Slot,
    TooLarge,
    check_order,
    harvest_rate,
    rate,
)

FRAME_LENGTH = 1.0  # normalized frame; throughput scales linearly with it


class LpFailure(RuntimeError):
    """The time-allocation LP did not come back optimal."""


@dataclass(frozen=True)
class StmSolution:
    """Frame allocation, total throughput in bits, and who got airtime."""

    schedule: Schedule
    throughput: float
    scheduled_users: tuple[int, ...]


def _layout(tau0: float, allocations: Sequence[tuple[int, float]]) -> list[Slot]:
    """Slots for (user, duration) pairs in slot order.

    Zero durations are dropped; the remaining slots sit back-to-back after
    the leading unallocated interval.
    """
    slots = []
    t = tau0
    for user, duration in allocations:
        if duration > 0.0:
            slots.append(Slot(user=user, start=t, duration=duration))
            t += duration
    return slots


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

    tau0 = remaining
    slots = _layout(tau0, [(i, tau) for i, tau in reversed(granted)])
    throughput = sum((tau * rates[i - 1] for i, tau in granted), 0.0)
    scheduled = tuple(sorted(i for i, tau in granted if tau > 0.0))
    return StmSolution(schedule=Schedule(tau0=tau0, slots=tuple(slots)),
                       throughput=throughput, scheduled_users=scheduled)


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
    harvest = np.array([0.0] + [harvest_rate(params, u) for u in users])

    # Row k >= 1 spends p_max in its own slot and earns what is harvested
    # during tau0 and every slot up to its own; row 0 is the frame budget
    # tau0 + sum tau_i <= frame.
    k = np.arange(c.size)
    a = np.where(k <= k[:, None], -harvest[:, None], 0.0)
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

    x = solution.x
    tau0 = max(0.0, float(x[0]))
    durations = [max(0.0, v) for v in x[1:].tolist()]
    slots = _layout(tau0, list(zip(order, durations)))
    rates = dict(zip(order, problem.objective[1:].tolist()))  # the LP's per-slot rates
    throughput = sum(s.duration * rates[s.user] for s in slots)
    scheduled = tuple(sorted(s.user for s in slots))
    return StmSolution(schedule=Schedule(tau0=tau0, slots=tuple(slots)),
                       throughput=throughput, scheduled_users=scheduled)


def brute_force_stm(instance: NetworkInstance) -> StmSolution:
    """Exact oracle: best fixed-order allocation over all transmission orders.

    Ties break toward the lexicographically smallest order. Only for small
    instances.

    Raises:
        TooLarge: more than BRUTE_FORCE_LIMIT users.
    """
    n = instance.n_users
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} users; order enumeration is capped at {BRUTE_FORCE_LIMIT}")
    best: StmSolution | None = None
    for order in itertools.permutations(range(1, n + 1)):
        candidate = fixed_order_stm(instance, order)
        if best is None or candidate.throughput > best.throughput:
            best = candidate
    assert best is not None
    return best
