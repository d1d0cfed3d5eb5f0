"""Scheduling toolkit: LP relaxations with randomized offset rounding for
weighted completion time on unrelated machines with release times."""

from .chain_lp import (
    ChainLpError,
    ChainSolution,
    build_compressed_timeline,
    solve_chain_lp,
    solve_chain_lp_compressed,
)
from .chains import Chain, earliest_chain
from .distributions import DistributionStats, OffsetDistribution
from .instance import (
    FORBIDDEN,
    Instance,
    InstanceError,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    ScheduleError,
    evaluate_schedule,
    horizon,
    instance_to_json,
    load_instance,
    parse_instance,
    save_instance,
)
from .interval_lp import (
    FractionalIntervalSolution,
    IntervalLpError,
    StartTimeSet,
    build_interval_lp,
    compress_start_times,
    solution_from_triples,
    solve_interval_lp,
)
from .lowerbound import LowerBoundResult, build_lb_instance, run_lb_experiment
from .oracle import GuardExceeded, brute_force_nonpreemptive, brute_force_preemptive
from .preemptive import (
    default_offset_distribution,
    estimate_ratio_preemptive,
    round_preemptive_once,
    simulate_preemptive_rounding,
)
from .rounding import (
    IdleDiagnostic,
    RatioEstimate,
    RoundingDraw,
    busy_densities,
    estimate_ratio,
    idle_diagnostic,
    round_once,
    simulate_rounding,
)
from .simplex import Basis, LinearProgram, LpError, LpSolution, NumericalError, lp_to_text, solve_lp

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "FORBIDDEN",
    "Chain",
    "ChainLpError",
    "ChainSolution",
    "DistributionStats",
    "FractionalIntervalSolution",
    "GuardExceeded",
    "IdleDiagnostic",
    "Instance",
    "InstanceError",
    "IntervalLpError",
    "LinearProgram",
    "LowerBoundResult",
    "LpError",
    "LpSolution",
    "NonPreemptiveSchedule",
    "NumericalError",
    "OffsetDistribution",
    "PreemptiveSchedule",
    "RatioEstimate",
    "RoundingDraw",
    "ScheduleError",
    "StartTimeSet",
    "brute_force_nonpreemptive",
    "brute_force_preemptive",
    "build_compressed_timeline",
    "build_interval_lp",
    "build_lb_instance",
    "busy_densities",
    "compress_start_times",
    "default_offset_distribution",
    "estimate_ratio",
    "estimate_ratio_preemptive",
    "evaluate_schedule",
    "horizon",
    "idle_diagnostic",
    "instance_to_json",
    "load_instance",
    "lp_to_text",
    "parse_instance",
    "round_once",
    "round_preemptive_once",
    "run_lb_experiment",
    "save_instance",
    "simulate_preemptive_rounding",
    "simulate_rounding",
    "solution_from_triples",
    "solve_chain_lp",
    "solve_chain_lp_compressed",
    "solve_interval_lp",
    "solve_lp",
]
