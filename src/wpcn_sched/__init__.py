"""Scheduling for full duplex wireless powered communication networks.

Minimum-length and sum-throughput scheduling of RF-harvesting users under
an on-off (fixed transmit power) scheme, plus the random network generator
and Monte Carlo sweep harness used to study them.
"""

from .lp import LpProblem, LpSolution, LpStatus, NumericalBreakdown
from .lp import solve as solve_lp
from .mls import MlsSolution, brute_force_mls, fixed_order_mls, mlsa, pdo
from .model import (
    FeasibilityReport,
    Infeasible,
    MalformedSchedule,
    NetworkInstance,
    RateOverflow,
    Schedule,
    Slot,
    SystemParams,
    TooLarge,
    UserProfile,
    energy_required,
    harvest_curve,
    harvest_rate,
    instance_from_dict,
    instance_to_dict,
    rate,
    s_min,
    snr_coefficient,
    tau_min,
    validate,
)
from .netgen import GenConfig, derive_seed, linear_gain, path_loss_db, sample, sample_gain
from .stm import LpFailure, StmSolution, brute_force_stm, fixed_order_stm, mrsa

__all__ = [
    "FeasibilityReport",
    "GenConfig",
    "Infeasible",
    "LpFailure",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "MalformedSchedule",
    "MlsSolution",
    "NetworkInstance",
    "NumericalBreakdown",
    "RateOverflow",
    "Schedule",
    "Slot",
    "StmSolution",
    "SystemParams",
    "TooLarge",
    "UserProfile",
    "brute_force_mls",
    "brute_force_stm",
    "derive_seed",
    "energy_required",
    "fixed_order_mls",
    "fixed_order_stm",
    "harvest_curve",
    "harvest_rate",
    "instance_from_dict",
    "instance_to_dict",
    "linear_gain",
    "mlsa",
    "mrsa",
    "path_loss_db",
    "pdo",
    "rate",
    "s_min",
    "sample",
    "sample_gain",
    "snr_coefficient",
    "solve_lp",
    "tau_min",
    "validate",
]
