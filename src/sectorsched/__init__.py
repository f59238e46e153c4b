"""Revisit-time equalization for surveillance tasks on rotating radars.

The package splits azimuth into sectors, computes each sector's fair share
of the surveillance demand, assigns beam-pointing tasks to sectors within
the antenna's field of view so relative loads flatten, and simulates the
rotation to measure revisit times.  A small exact solver provides optimal
answers on desk-scale instances for validation.

Everything is deterministic: scheduling and simulation are pure functions of
their inputs, and generation is a pure function of its seed.
"""

from .equalize import equalize, maximal_subset
from .errors import (
    InfeasibleScenarioError,
    InvalidInputError,
    LimitsExceededError,
    ScenarioFormatError,
    ScenarioValidationError,
    SectorSchedError,
)
from .exact import ExactSolution, SearchLimits, bin_packing_reduce, check_assignment, exact_min_passes
from .generate import GenParams, Xorshift64Star, generate
from .loads import (
    LoadReport,
    PROVENANCE_FOV,
    PROVENANCE_LEFTOVER,
    PROVENANCE_OWN,
    SchedulePartition,
    SectorTargets,
    broadside_baseline,
    build_partition,
    check_partition,
    load_report,
    sector_targets,
)
from .model import (
    CAP_SLACK,
    Scenario,
    SurveillanceTask,
    sector_of_direction,
)
from .simulate import (
    ExecutionRecord,
    POLICY_EDF,
    POLICY_PARTITION,
    RevisitStats,
    SimulationTrace,
    TaskRevisit,
    TraceProblem,
    check_trace,
    measure_resources,
    revisit_stats,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CAP_SLACK",
    "ExactSolution",
    "ExecutionRecord",
    "GenParams",
    "InfeasibleScenarioError",
    "InvalidInputError",
    "LimitsExceededError",
    "LoadReport",
    "POLICY_EDF",
    "POLICY_PARTITION",
    "PROVENANCE_FOV",
    "PROVENANCE_LEFTOVER",
    "PROVENANCE_OWN",
    "RevisitStats",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "SchedulePartition",
    "SearchLimits",
    "SectorSchedError",
    "SectorTargets",
    "SimulationTrace",
    "SurveillanceTask",
    "TaskRevisit",
    "TraceProblem",
    "Xorshift64Star",
    "bin_packing_reduce",
    "broadside_baseline",
    "build_partition",
    "check_assignment",
    "check_partition",
    "check_trace",
    "equalize",
    "exact_min_passes",
    "generate",
    "load_report",
    "maximal_subset",
    "measure_resources",
    "revisit_stats",
    "sector_of_direction",
    "sector_targets",
    "simulate",
]
