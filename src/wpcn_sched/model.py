"""Physical-layer model of a full duplex wireless powered network.

A hybrid access point broadcasts RF energy at constant power; users harvest
it through a saturating (logistic) rectifier circuit and transmit uplink
data one at a time at a fixed power, or stay silent. Everything here is a
pure closed-form function over immutable value types. Units are linear SI
throughout: watts, hertz, joules, seconds, bits.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

# Replay tolerances: double precision accumulated over at most N+1 slots.
ENERGY_TOL = 1e-12   # joules
TRAFFIC_TOL = 1e-9   # bits
CONTIGUITY_TOL = 1e-9  # seconds; larger gaps between slots are malformed


class Infeasible(Exception):
    """A user can never meet its demand (no harvesting, battery too small)."""


class MalformedSchedule(ValueError):
    """Slots are non-contiguous, duplicated, or reference unknown users."""


class TooLarge(ValueError):
    """Instance exceeds the hard size limit of an exhaustive solver."""


class RateOverflow(ValueError):
    """A user's rate overflows to infinity: its inputs are out of range."""


BRUTE_FORCE_LIMIT = 8  # factorial growth; hard cap for the permutation oracles


def check_order(order: Sequence[int], n: int) -> None:
    """Raise ValueError unless ``order`` is a permutation of 1..n in integers
    (numpy ones included, bools not)."""
    try:
        indices = sorted(map(operator.index, order))
    except TypeError:   # a float, say
        indices = None
    if indices != list(range(1, n + 1)) or bool in map(type, order):
        raise ValueError(f"order {order!r} is not a permutation of 1..{n}")


def require_finite(obj) -> None:
    """Raise ValueError if any float field of dataclass ``obj`` is NaN or infinite."""
    # Not dataclasses.fields (slower) nor vars() (materializing __dict__ slows
    # every later attribute read of the hot model objects).
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Access-point and channel constants shared by every user.

    The harvester curve constants (saturation power, logistic slope,
    turn-on threshold) describe one rectifier circuit; defaults are the
    usual curve-fit values for a 24 mW circuit. ``noise_density`` defaults
    to -174 dBm/Hz and ``self_interference`` to -70 dB residual
    cancellation, both expressed linearly.
    """

    p_h: float                       # HAP broadcast power [W]
    p_max: float                     # fixed user transmit power [W]
    bandwidth: float = 1e6           # uplink channel bandwidth [Hz]
    noise_density: float = 10.0 ** -20.4   # [W/Hz]
    self_interference: float = 1e-7  # linear residual coefficient at the HAP
    eh_saturation: float = 0.02337   # harvester saturation power [W]
    eh_slope: float = 150.0          # harvester logistic slope [1/W]
    eh_threshold: float = 0.014      # harvester turn-on threshold [W]

    def __post_init__(self) -> None:
        require_finite(self)
        if not (self.p_h > 0 and self.p_max > 0 and self.bandwidth > 0):
            raise ValueError("p_h, p_max and bandwidth must be positive")
        if self.noise_density < 0 or self.self_interference < 0:
            raise ValueError("noise_density and self_interference must be >= 0")
        if not self.noise_density * self.bandwidth + self.self_interference * self.p_h > 0:
            raise ValueError("noise_density * bandwidth + self_interference * p_h must be > 0")
        if not (self.eh_saturation > 0 and self.eh_slope > 0):
            raise ValueError("eh_saturation and eh_slope must be positive")
        if self.eh_threshold < 0:
            raise ValueError("eh_threshold must be >= 0")


@dataclass(frozen=True)
class UserProfile:
    """Per-user state at the start of a scheduling frame.

    ``eh_slope`` / ``eh_threshold`` override the shared circuit constants
    for users with a different harvester; ``None`` means use the shared
    values from :class:`SystemParams`.
    """

    uplink_gain: float               # linear power gain user -> HAP
    downlink_gain: float             # linear power gain HAP -> user
    initial_energy: float = 0.0      # battery carried over from earlier frames [J]
    demand_bits: float = 100.0       # traffic requirement [bits]
    eh_slope: float | None = None
    eh_threshold: float | None = None

    def __post_init__(self) -> None:
        require_finite(self)
        if not (self.uplink_gain > 0 and self.downlink_gain > 0):
            raise ValueError("channel gains must be positive")
        if self.initial_energy < 0:
            raise ValueError("initial_energy must be >= 0")
        if not self.demand_bits > 0:
            raise ValueError("demand_bits must be positive")
        if self.eh_slope is not None and not self.eh_slope > 0:
            raise ValueError("eh_slope override must be positive")
        if self.eh_threshold is not None and self.eh_threshold < 0:
            raise ValueError("eh_threshold override must be >= 0")


@dataclass(frozen=True)
class NetworkInstance:
    """One solver input: shared parameters plus users indexed 1..N.

    ``rates``, ``harvest_rates``, ``tau_mins`` and ``s_mins`` hold each
    user's closed form in index order. Each is computed by its public
    function on first read, so the first user that fails raises, and kept;
    a failed read keeps nothing. They are not fields: equality, hashing,
    ``repr`` and :func:`dataclasses.replace` see only ``params`` and
    ``users``.
    """

    params: SystemParams
    users: tuple[UserProfile, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        if not self.users:
            raise ValueError("instance needs at least one user")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def user(self, index: int) -> UserProfile:
        """Return the user with 1-based ``index``."""
        if not 1 <= index <= len(self.users):
            raise IndexError(f"user index {index} out of range 1..{len(self.users)}")
        return self.users[index - 1]

    @functools.cached_property
    def rates(self) -> tuple[float, ...]:
        """:func:`rate` of each user."""
        return tuple(rate(self.params, u) for u in self.users)

    @functools.cached_property
    def harvest_rates(self) -> tuple[float, ...]:
        """:func:`harvest_rate` of each user."""
        return tuple(harvest_rate(self.params, u) for u in self.users)

    @functools.cached_property
    def tau_mins(self) -> tuple[float, ...]:
        """:func:`tau_min` of each user."""
        return tuple(tau_min(self.params, u) for u in self.users)

    @functools.cached_property
    def s_mins(self) -> tuple[float, ...]:
        """:func:`s_min` of each user."""
        return tuple(s_min(self.params, u) for u in self.users)


@dataclass(frozen=True)
class Slot:
    """One transmission slot: 1-based integer user index (not a bool), start
    time, duration."""

    user: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        try:
            user = operator.index(self.user)
        except TypeError:   # a float, say
            user = None
        if user is None or type(self.user) is bool:
            raise ValueError(f"user index must be an integer, got {self.user!r}")
        if user < 1:
            raise ValueError("user index is 1-based")
        if not math.isfinite(self.start) or not math.isfinite(self.duration):
            raise ValueError("slot times must be finite")
        if self.duration < 0:
            raise ValueError("slot duration must be >= 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Schedule:
    """A frame: an initial harvest-only interval followed by back-to-back slots.

    ``tau0`` is the leading unallocated time in which everyone harvests and
    nobody transmits. Construction only checks local sanity; contiguity and
    duplicate detection happen in :func:`validate`, which needs the instance.
    """

    tau0: float
    slots: tuple[Slot, ...] = ()

    def __post_init__(self) -> None:
        if type(self.slots) is not tuple:   # layout already passes one
            object.__setattr__(self, "slots", tuple(self.slots))
        if not math.isfinite(self.tau0) or self.tau0 < 0:
            raise ValueError("tau0 must be finite and >= 0")

    @property
    def length(self) -> float:
        """Total span: end of the last slot, or tau0 for an empty frame."""
        return self.slots[-1].end if self.slots else self.tau0


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of replaying a schedule against an instance.

    ``energy_ok`` / ``traffic_ok`` map 1-based user index to a boolean;
    ``traffic_ok`` is empty unless traffic was checked. The balance is
    linear within a slot and at the slot's start it is battery +
    harvest * start >= 0, so checking it at each slot's end is enough in
    every regime.
    """

    energy_ok: dict[int, bool]
    traffic_ok: dict[int, bool]
    length: float
    throughput: float

    @property
    def ok(self) -> bool:
        return all(self.energy_ok.values()) and all(self.traffic_ok.values())


def _logistic(z: float) -> float:
    # Overflow-safe 1/(1+exp(-z)).
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def snr_coefficient(params: SystemParams, user: UserProfile) -> float:
    """Uplink SNR per watt of transmit power.

    The receiver sees thermal noise over the whole band plus the residual
    self-interference of the simultaneous downlink energy broadcast, so the
    coefficient is gain / (noise_density * bandwidth + self_interference * p_h).
    """
    return user.uplink_gain / (params.noise_density * params.bandwidth
                               + params.self_interference * params.p_h)


def rate(params: SystemParams, user: UserProfile) -> float:
    """Shannon rate at the fixed transmit power, in bits/second.

    Raises:
        RateOverflow: the rate is infinite, e.g. for an uplink gain or a
            transmit power near the largest double.
    """
    k = snr_coefficient(params, user)
    r = params.bandwidth * math.log2(1.0 + k * params.p_max)
    if math.isinf(r):
        raise RateOverflow(
            f"rate overflows for uplink_gain {user.uplink_gain!r}, "
            f"p_max {params.p_max!r}, bandwidth {params.bandwidth!r}")
    return r


def harvest_curve(input_power: float, saturation: float, slope: float,
                  threshold: float) -> float:
    """Logistic harvester output power for a given RF input power.

    saturation * (psi - omega) / (1 - omega) with
    psi = 1/(1+exp(-slope*(input - threshold))) and
    omega = 1/(1+exp(slope*threshold)); the omega correction pins zero
    output at zero input. Output lies in [0, saturation].

    Evaluated as saturation * -expm1(-slope*input) * logistic(slope*(input
    - threshold)), which is the same expression rearranged so that the
    nearly-cancelling psi - omega difference is never formed; weak inputs
    would otherwise lose several digits.
    """
    return (saturation
            * -math.expm1(-slope * input_power)
            * _logistic(slope * (input_power - threshold)))


def harvest_rate(params: SystemParams, user: UserProfile) -> float:
    """Power harvested by a user from the access point broadcast, in watts."""
    slope = params.eh_slope if user.eh_slope is None else user.eh_slope
    threshold = params.eh_threshold if user.eh_threshold is None else user.eh_threshold
    return harvest_curve(user.downlink_gain * params.p_h,
                         params.eh_saturation, slope, threshold)


def tau_min(params: SystemParams, user: UserProfile) -> float:
    """Shortest transmission time that fulfills the user's demand, in seconds.

    demand / rate, raised an ulp at a time while rate * time falls short of
    the demand by more than TRAFFIC_TOL, as an ulp of a 1e8-bit demand does.

    Raises:
        Infeasible: the rate is zero (underflowed) or too small for any
            representable time to carry the demand.
    """
    r = rate(params, user)
    t = user.demand_bits / r if r > 0.0 else math.inf
    if math.isinf(t):
        raise Infeasible(f"rate {r!r} bit/s can never carry {user.demand_bits!r} bits")
    while r * t < user.demand_bits - TRAFFIC_TOL:
        t = math.nextafter(t, math.inf)
    return t


def energy_required(params: SystemParams, user: UserProfile) -> float:
    """Energy spent transmitting the full demand at fixed power, in joules."""
    return tau_min(params, user) * params.p_max


def s_min(params: SystemParams, user: UserProfile) -> float:
    """Earliest start time at which the user can afford its whole transmission.

    Solves battery + harvested-by-completion >= spent for the start time:
    (energy_required - battery - tau_min * harvest) / harvest. Negative
    values mean the user is ready immediately. A user that harvests nothing
    is ready at -tau_min if its battery alone suffices, and can never
    transmit otherwise.

    Raises:
        Infeasible: harvest rate is zero and the battery is too small.
    """
    t_min = tau_min(params, user)
    c = harvest_rate(params, user)
    e_req = t_min * params.p_max
    if c == 0.0:
        if user.initial_energy >= e_req:
            return -t_min
        raise Infeasible(
            f"user harvests nothing and battery {user.initial_energy!r} J "
            f"< required {e_req!r} J")
    start = (e_req - user.initial_energy - t_min * c) / c
    if math.isinf(start) and start > 0:
        # Harvesting is nominally positive but the start time overflows any
        # representable schedule; surface it like the zero-harvest case.
        raise Infeasible("harvest rate too small to ever afford the transmission")
    return start


def shortfalls(instance: NetworkInstance, schedule: Schedule) -> dict[int, float]:
    """The energy-causality replay: user to battery left when its slot ends,
    battery + harvest * end - p_max * duration in joules, for each slot (in
    slot order) whose balance is not >= -ENERGY_TOL, a NaN one included.
    The harvest rates are the instance's own."""
    p_max = instance.params.p_max
    users = instance.users
    harvests = instance.harvest_rates
    short = {}
    for slot in schedule.slots:
        i = slot.user
        balance = users[i - 1].initial_energy + harvests[i - 1] * slot.end - p_max * slot.duration
        if not balance >= -ENERGY_TOL:
            short[i] = balance
    return short


def validate(instance: NetworkInstance, schedule: Schedule,
             check_traffic: bool = False) -> FeasibilityReport:
    """Replay a schedule and check energy causality (and optionally traffic).

    Energy causality: no scheduled user is in :func:`shortfalls`, the same
    replay that the solvers' repair loops read.
    With ``check_traffic``, every user of the instance must move its demand:
    rate_i * dur_i >= demand_i - TRAFFIC_TOL (zero duration if unscheduled).
    Unscheduled users trivially satisfy energy causality.

    Raises:
        MalformedSchedule: duplicate users, unknown user indices, or slots
            that do not sit back-to-back starting at tau0.
    """
    n = instance.n_users
    slots: dict[int, Slot] = {}
    expected_start = schedule.tau0
    for slot in schedule.slots:
        if slot.user not in range(1, n + 1):
            raise MalformedSchedule(f"slot references unknown user {slot.user}")
        if slot.user in slots:
            raise MalformedSchedule(f"user {slot.user} scheduled twice")
        slots[slot.user] = slot
        if abs(slot.start - expected_start) > CONTIGUITY_TOL:
            raise MalformedSchedule(
                f"slot for user {slot.user} starts at {slot.start!r}, "
                f"expected {expected_start!r}")
        expected_start = slot.start + slot.duration

    rates = instance.rates
    short = shortfalls(instance, schedule)
    energy_ok: dict[int, bool] = {}
    traffic_ok: dict[int, bool] = {}
    throughput = 0.0
    for i in range(1, n + 1):
        user = instance.users[i - 1]
        slot = slots.get(i)
        dur = 0.0 if slot is None else slot.duration
        energy_ok[i] = i not in short
        r = rates[i - 1]
        throughput += dur * r
        if check_traffic:
            traffic_ok[i] = r * dur >= user.demand_bits - TRAFFIC_TOL

    return FeasibilityReport(energy_ok=energy_ok, traffic_ok=traffic_ok,
                             length=schedule.length, throughput=throughput)


# -- shared by the minimum-length and sum-throughput solvers -----------------

T = TypeVar("T")


def best_order(instance: NetworkInstance,
               solve: Callable[[NetworkInstance, Sequence[int]], T],
               score: Callable[[T], float]) -> T:
    """Exhaustive search: the ``solve(instance, order)`` of highest ``score``
    over every transmission order.

    Ties break toward the lexicographically smallest order (``max`` keeps
    the first of equal scores). Only for small instances.

    Raises:
        TooLarge: more than BRUTE_FORCE_LIMIT users.
    """
    n = instance.n_users
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} users; permutation search is capped at {BRUTE_FORCE_LIMIT}")
    return max((solve(instance, order) for order in itertools.permutations(range(1, n + 1))),
               key=score)


def layout(tau0: float, pairs: Iterable[tuple[int, float]]) -> Schedule:
    """Schedule of (user, duration) pairs in slot order, back to back after
    the leading unallocated interval. Zero durations are kept.

    Raises:
        Infeasible: the frame would end past the largest double.
    """
    slots = []
    t = tau0
    for user, duration in pairs:
        end = t + duration
        if math.isinf(end):
            raise Infeasible(f"slot of user {user} would end past the largest double")
        slots.append(Slot(user, t, duration))
        t = end
    return Schedule(tau0, tuple(slots))


# -- canonical JSON representation (used by the CLI) -------------------------

_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970  # the least int that float() rounds past the largest double


def is_number(value) -> bool:
    """Whether a JSON scalar is a float, or an int (not a bool) that converts to a double."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) < _FLOAT_OVERFLOW)


# What each scalar field type accepts, and its description.
_JSON_SCALARS = {"int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
                 "float": (is_number, "a number"),
                 "bool": (lambda v: isinstance(v, bool), "true or false")}


def check_object(cls: type, data) -> None:
    """Raise ValueError unless ``data``, read for dataclass ``cls``, is a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")


def check_types(cls: type, data: dict) -> None:
    """Raise ValueError unless ``data`` is a JSON object (:func:`check_object`)
    and each number or flag in it fits its field of dataclass ``cls``.

    int fields take integers, bool fields true or false, and float fields
    numbers (:func:`is_number`); a bool is never a number. ``None`` passes
    where the field is optional. Other fields and ranges are left to ``cls``.
    """
    check_object(cls, data)
    for field in dataclasses.fields(cls):  # field.type is the annotation string
        kind = field.type.removesuffix(" | None")
        if field.name not in data or kind not in _JSON_SCALARS:
            continue
        value = data[field.name]
        if value is None and kind != field.type:
            continue
        accepts, words = _JSON_SCALARS[kind]
        if not accepts(value):
            raise ValueError(f"{field.name} must be {words}, got {value!r}")


def from_dict(cls: type[T], data: dict) -> T:
    """Dataclass ``cls`` built from a JSON object, its scalar types checked first."""
    check_types(cls, data)
    return cls(**data)


def to_dict(obj) -> dict:
    """JSON-ready dict of dataclass ``obj`` in field order; ``None`` overrides are left out."""
    return dataclasses.asdict(
        obj, dict_factory=lambda items: {k: v for k, v in items if v is not None})


def instance_to_dict(instance: NetworkInstance) -> dict:
    return {"params": to_dict(instance.params), "users": [to_dict(u) for u in instance.users]}


def instance_from_dict(data: dict) -> NetworkInstance:
    check_object(NetworkInstance, data)
    params = from_dict(SystemParams, data["params"])
    if not isinstance(data["users"], list):
        raise ValueError(f"users must be an array, got {data['users']!r}")
    return NetworkInstance(params, tuple(from_dict(UserProfile, u) for u in data["users"]))
