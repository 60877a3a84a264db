"""Minimum-length scheduling: complete every user's demand as early as possible.

Each user transmits exactly its minimum time (transmitting longer never
shortens the frame), so the only freedom is the transmission order and the
leading harvest-only interval. Ordering users by minimum feasible start
time is optimal; an exhaustive permutation search is kept as an oracle for
small instances. The search and the slot layout are shared with the
throughput solvers: :func:`model.best_order` and :func:`model.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import NetworkInstance, Schedule, best_order, check_order, layout, s_min, tau_min


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
    at zero. Slots then sit back-to-back.

    Raises:
        Infeasible: some user can never transmit (propagated from s_min).
    """
    check_order(order, instance.n_users)
    params = instance.params
    durations = [tau_min(params, instance.user(i)) for i in order]
    starts_min = [s_min(params, instance.user(i)) for i in order]

    tau0 = 0.0
    elapsed = 0.0
    for s, d in zip(starts_min, durations):
        tau0 = max(tau0, s - elapsed)
        elapsed += d

    schedule = layout(tau0, zip(order, durations))
    return MlsSolution(schedule=schedule, length=schedule.length)


def mlsa(instance: NetworkInstance) -> MlsSolution:
    """Optimal minimum-length schedule: users in nondecreasing s_min order.

    Ties on the minimum start time break by ascending user index. Durations
    equal each user's minimum transmission time.

    Raises:
        Infeasible: some user can never transmit.
    """
    params = instance.params
    order = sorted(range(1, instance.n_users + 1),
                   key=lambda i: (s_min(params, instance.user(i)), i))
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
