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
    InsufficientDataError,
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
    TWO_PI,
    active_sectors,
    angular_sector_distance,
    main_sector,
    make_task,
    sector_of_direction,
)
from .simulate import (
    ExecutionRecord,
    POLICY_EDF,
    POLICY_PARTITION,
    ResourceEstimate,
    RevisitStats,
    SimulationTrace,
    TaskRevisit,
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
    "InsufficientDataError",
    "InvalidInputError",
    "LimitsExceededError",
    "LoadReport",
    "POLICY_EDF",
    "POLICY_PARTITION",
    "PROVENANCE_FOV",
    "PROVENANCE_LEFTOVER",
    "PROVENANCE_OWN",
    "ResourceEstimate",
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
    "TWO_PI",
    "TaskRevisit",
    "Xorshift64Star",
    "active_sectors",
    "angular_sector_distance",
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
    "main_sector",
    "make_task",
    "maximal_subset",
    "measure_resources",
    "revisit_stats",
    "sector_of_direction",
    "sector_targets",
    "simulate",
]
