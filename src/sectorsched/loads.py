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
from typing import Mapping

from .errors import InvalidInputError
from .model import Scenario, angular_sector_distance

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

    ``assignments[i]`` holds the ids of the tasks sector ``i`` executes,
    sorted ascending so serialization is canonical.  ``provenance`` maps each
    task id to the phase tag that placed it (one of ``PROVENANCE_TAGS``).
    """

    assignments: tuple[tuple[int, ...], ...]
    provenance: Mapping[int, str]

    def sector_index(self) -> dict[int, int]:
        """Task id -> executing sector, for the whole partition."""
        return {tid: i for i, ids in enumerate(self.assignments) for tid in ids}


def build_partition(n_sectors: int, sector_of_task: Mapping[int, int],
                    provenance: Mapping[int, str]) -> SchedulePartition:
    """Canonical SchedulePartition from a task-id -> sector mapping."""
    buckets: list[list[int]] = [[] for _ in range(n_sectors)]
    for tid, sector in sector_of_task.items():
        buckets[sector].append(tid)
    return SchedulePartition(
        assignments=tuple(tuple(sorted(ids)) for ids in buckets),
        provenance={tid: provenance[tid] for tid in sorted(sector_of_task)},
    )


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
    raises :class:`InvalidInputError`.
    """
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
    sector_of_task = {t.id: t.home_sector for t in scenario.tasks}
    provenance = {t.id: PROVENANCE_OWN for t in scenario.tasks}
    return build_partition(scenario.n_sectors, sector_of_task, provenance)


def check_partition(scenario: Scenario, partition: SchedulePartition) -> list[str]:
    """Independent validity check: completeness plus field-of-view feasibility."""
    problems: list[str] = []
    if len(partition.assignments) != scenario.n_sectors:
        problems.append(
            f"partition covers {len(partition.assignments)} sectors, "
            f"scenario has {scenario.n_sectors}")
        return problems
    by_id = scenario.task_by_id()
    seen: dict[int, int] = {}
    for sector, ids in enumerate(partition.assignments):
        for tid in ids:
            if tid in seen:
                problems.append(f"task {tid} assigned to sectors {seen[tid]} and {sector}")
                continue
            seen[tid] = sector
            task = by_id.get(tid)
            if task is None:
                problems.append(f"task {tid} not part of the scenario")
                continue
            dist = angular_sector_distance(sector, task.home_sector, scenario.n_sectors)
            if dist > scenario.fov_half_width:
                problems.append(
                    f"task {tid} executed {dist} sectors from home "
                    f"(fov half-width {scenario.fov_half_width})")
    missing = sorted(set(by_id) - set(seen))
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    for tid, tag in partition.provenance.items():
        if tag not in PROVENANCE_TAGS:
            problems.append(f"task {tid} has unknown provenance tag {tag!r}")
    return problems
