"""Minimum-length scheduling: complete every user's demand as early as possible.

Each user transmits exactly its minimum time (transmitting longer never
shortens the frame), so the only freedom is the transmission order and the
leading harvest-only interval. Ordering users by minimum feasible start
time is optimal; an exhaustive permutation search is kept as an oracle for
small instances. The search and the slot layout are shared with the
throughput solvers: :func:`model.best_order` and :func:`model.layout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import NetworkInstance, Schedule, best_order, check_order, layout, shortfalls


@dataclass(frozen=True)
class MlsSolution:
    """A complete schedule and its total frame length in seconds."""

    schedule: Schedule
    length: float


def fixed_order_mls(instance: NetworkInstance, order: Sequence[int]) -> MlsSolution:
    """Shortest schedule in which users transmit their minimum times in ``order``.

    All waiting is moved to the front: the leading interval is the smallest
    tau0 such that every user's slot starts at or after its minimum start
    time, i.e. max over users of (s_min - sum of earlier durations), clamped
    at zero. Slots then sit back-to-back. A user in :func:`model.shortfalls`
    (an ulp short at large energies) starts the frame later to cover its
    deficit at its harvest rate.

    Raises:
        Infeasible: some user can never transmit (propagated from s_min), or
            the frame would end past the largest double.
    """
    check_order(order, instance.n_users)
    # The instance's closed forms, tau_min read first: every user's tau_min
    # error comes before any user's s_min error.
    durations = instance.tau_mins
    harvests = instance.harvest_rates
    starts = instance.s_mins

    tau0 = elapsed = 0.0
    for i in order:
        tau0 = max(tau0, starts[i - 1] - elapsed)
        elapsed += durations[i - 1]

    while True:
        schedule = layout(tau0, ((i, durations[i - 1]) for i in order))
        # Only harvesting users replay a deficit: s_min checked the others' batteries.
        delay = max((-balance / harvests[i - 1]
                     for i, balance in shortfalls(instance, schedule).items()), default=0.0)
        if not delay:
            return MlsSolution(schedule=schedule, length=schedule.length)
        tau0 = math.nextafter(tau0 + delay, math.inf)


def mlsa(instance: NetworkInstance) -> MlsSolution:
    """Optimal minimum-length schedule: users in nondecreasing s_min order.

    Ties on the minimum start time break by ascending user index. Durations
    equal each user's minimum transmission time.

    Raises:
        Infeasible: some user can never transmit.
    """
    starts = instance.s_mins
    order = sorted(range(1, instance.n_users + 1), key=lambda i: (starts[i - 1], i))
    return fixed_order_mls(instance, order)


def pdo(instance: NetworkInstance) -> MlsSolution:
    """Baseline: schedule users in their given (index) order."""
    return fixed_order_mls(instance, range(1, instance.n_users + 1))


def brute_force_mls(instance: NetworkInstance) -> MlsSolution:
    """Exhaustive oracle: shortest schedule over all user permutations.

    Ties break toward the lexicographically smallest order. Only for small
    instances.

    Raises:
        TooLarge: more than BRUTE_FORCE_LIMIT users.
        Infeasible: some user can never transmit.
    """
    return best_order(instance, fixed_order_mls, lambda solution: -solution.length)
