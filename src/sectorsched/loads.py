"""Continuous load targets, schedule partitions, and per-sector load reports.

The continuous relaxation treats every task as infinitely divisible: the
optimum load ratio is total demand over total per-rotation resources, and
each sector's fair share (its target) is that ratio times its resources.
A sector's relative load is its assigned demand divided by its target; the
maximum over sectors approximates the number of rotations needed to update
every direction once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

from .errors import InvalidInputError
from .model import INT_LIMIT, Scenario, check_count, check_instance

# Provenance tags: which phase of the equalizer placed a task.
PROVENANCE_OWN = "own-sector"
PROVENANCE_FOV = "fov-equalized"
PROVENANCE_LEFTOVER = "leftover"
PROVENANCE_TAGS = (PROVENANCE_OWN, PROVENANCE_FOV, PROVENANCE_LEFTOVER)


@dataclass(frozen=True)
class SectorTargets:
    """Continuous optimum: overall ratio and per-sector fill targets, seconds."""

    r_opt: float
    targets: tuple[float, ...]


@dataclass(frozen=True)
class SchedulePartition:
    """Assignment of every task id to exactly one executing sector.

    ``assignments[i]`` holds the ids of the tasks sector ``i`` executes.
    :func:`build_partition` sorts each row ascending, so its serialization is
    canonical; the constructor and ``io.read_partition`` keep any order, and
    the simulator ignores it, breaking ties among tasks never illuminated by id.
    ``provenance`` maps a task id to the equalizer phase that placed it (one
    of ``PROVENANCE_TAGS``), if any.
    Anything else raises :class:`InvalidInputError`: assignments that are not
    a tuple of rows, each a tuple of int ids in ``[0, 2**63)`` (a bool is no
    id), or provenance that is not a mapping of such ids to ``str`` tags.
    """

    assignments: tuple[tuple[int, ...], ...]
    provenance: Mapping[int, str]

    def __post_init__(self):
        if type(self.assignments) is not tuple:
            raise InvalidInputError(f"assignments: expected a tuple of rows, "
                                    f"not {type(self.assignments).__name__}")
        if not isinstance(self.provenance, Mapping):
            raise InvalidInputError(f"provenance: expected a mapping of task id to tag, "
                                    f"not {type(self.provenance).__name__}")
        for i, ids in enumerate(self.assignments):
            if type(ids) is not tuple or not all(type(t) is int and 0 <= t < INT_LIMIT for t in ids):
                raise InvalidInputError(
                    f"assignments[{i}]: expected a row of int task ids in [0, 2**63)")
        for tid, tag in self.provenance.items():
            if type(tid) is not int or not 0 <= tid < INT_LIMIT:
                raise InvalidInputError("provenance: a task id is not an int in [0, 2**63)")
            if type(tag) is not str:
                raise InvalidInputError(
                    f"provenance.{tid}: unexpected type {type(tag).__name__}")

    def sector_index(self) -> dict[int, int]:
        """Task id -> executing sector, for the whole partition."""
        return {tid: i for i, ids in enumerate(self.assignments) for tid in ids}


def build_partition(n_sectors: int, sector_of_task: Mapping[int, int],
                    provenance: Mapping[int, str] = {}) -> SchedulePartition:
    """Canonical SchedulePartition from task id -> sector, tagging the tasks
    ``provenance`` has.  A sector that is not an int in ``[0, n_sectors)``
    (a bool is no sector), a task id that is not an int in ``[0, 2**63)``,
    or an argument that is not a mapping, raises :class:`InvalidInputError`."""
    check_count(n_sectors, "n_sectors")
    for value, name in ((sector_of_task, "sector_of_task"), (provenance, "provenance")):
        if not isinstance(value, Mapping):
            raise InvalidInputError(f"{name} must be a mapping, not {type(value).__name__}")
    if not all(type(tid) is int and 0 <= tid < INT_LIMIT for tid in sector_of_task):
        raise InvalidInputError("sector_of_task: task ids must be ints in [0, 2**63)")
    buckets: list[list[int]] = [[] for _ in range(n_sectors)]
    for tid, sector in sector_of_task.items():
        if type(sector) is not int or not 0 <= sector < n_sectors:
            raise InvalidInputError(
                f"task {tid}: sector {sector!r} is not an integer in [0, {n_sectors})")
        buckets[sector].append(tid)
    assignments = tuple(tuple(sorted(ids)) for ids in buckets)
    tags = {tid: provenance[tid] for tid in sorted(sector_of_task) if tid in provenance}
    return SchedulePartition(assignments=assignments, provenance=tags)


@dataclass(frozen=True)
class LoadReport:
    """Per-sector absolute load, target, and relative load, plus summary.

    A sector with target 0 gets relative load 0 when unloaded and inf when
    loaded; inf propagates into ``max_relative_load``.
    ``rotations_to_complete_bound`` is the ceil-free max of load over
    resources, the continuous lower bound on rotations needed.
    """

    absolute_load: tuple[float, ...]
    target: tuple[float, ...]
    relative_load: tuple[float, ...]
    max_relative_load: float
    rotations_to_complete_bound: float


def sector_targets(scenario: Scenario) -> SectorTargets:
    """Continuous optimum ratio and per-sector targets for a scenario (one
    with tasks has positive total resources, see :class:`Scenario`)."""
    check_instance(scenario, Scenario)
    total_demand = math.fsum(t.duration for t in scenario.tasks)
    r_opt = total_demand / math.fsum(scenario.resources) if total_demand else 0.0
    return SectorTargets(r_opt=r_opt,
                         targets=tuple(r * r_opt for r in scenario.resources))


def _ratio_or_flag(load: float, denom: float) -> float:
    if denom > 0.0:
        return load / denom
    return 0.0 if load == 0.0 else math.inf


def load_report(scenario: Scenario, partition: SchedulePartition) -> LoadReport:
    """Per-sector loads of a partition against the scenario's targets.

    The scenario is valid by construction; a partition, which comes from
    outside, is checked, and one that :func:`check_partition` rejects
    raises :class:`InvalidInputError`, as does a scenario argument that
    is not a :class:`Scenario`.
    """
    check_instance(scenario, Scenario)
    problems = check_partition(scenario, partition)
    if problems:
        raise InvalidInputError("partition does not match scenario: " + "; ".join(problems))
    by_id = scenario.task_by_id()
    loads = tuple(math.fsum(by_id[tid].duration for tid in ids)
                  for ids in partition.assignments)
    targets = sector_targets(scenario).targets
    relative = tuple(map(_ratio_or_flag, loads, targets))
    return LoadReport(
        absolute_load=loads,
        target=targets,
        relative_load=relative,
        max_relative_load=max(relative, default=0.0),
        rotations_to_complete_bound=max(
            map(_ratio_or_flag, loads, scenario.resources), default=0.0),
    )


def broadside_baseline(scenario: Scenario) -> SchedulePartition:
    """The trivial partition: every task executes in its home sector."""
    check_instance(scenario, Scenario)
    return build_partition(scenario.n_sectors, scenario.home,
                           dict.fromkeys(scenario.home, PROVENANCE_OWN))


def check_partition(scenario: Scenario, partition: SchedulePartition) -> list[str]:
    """Independent validity check: completeness, field-of-view feasibility,
    and known provenance tags on assigned tasks only.  A scenario that is not
    a :class:`Scenario`, or a partition that is not a
    :class:`SchedulePartition`, is one problem."""
    if not isinstance(scenario, Scenario):
        return [f"expected a Scenario, not {type(scenario).__name__}"]
    if not isinstance(partition, SchedulePartition):
        return [f"expected a SchedulePartition, not {type(partition).__name__}"]
    problems: list[str] = []
    if len(partition.assignments) != scenario.n_sectors:
        problems.append(
            f"partition covers {len(partition.assignments)} sectors, "
            f"scenario has {scenario.n_sectors}")
        return problems
    home = scenario.home
    n, w = scenario.n_sectors, scenario.fov_half_width
    seen: dict[int, int] = {}
    for sector, ids in enumerate(partition.assignments):
        for tid in ids:
            if tid in seen:
                problems.append(f"task {tid} assigned to sectors {seen[tid]} and {sector}")
                continue
            seen[tid] = sector
            if tid not in home:
                problems.append(f"task {tid} not part of the scenario")
                continue
            d = (sector - home[tid]) % n  # the cyclic distance is min(d, n - d)
            if w < d < n - w:
                problems.append(f"task {tid} executed {min(d, n - d)} sectors from home "
                                f"(fov half-width {w})")
    missing = sorted(set(home) - set(seen))
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    for tid, tag in partition.provenance.items():
        if tid not in seen:
            problems.append(f"task {tid} has provenance tag {tag!r} but no row assigns it")
        elif tag not in PROVENANCE_TAGS:
            problems.append(f"task {tid} has unknown provenance tag {tag!r}")
    return problems
