"""Rotation simulator: execute a schedule pass by pass and measure revisits.

The boresight sweeps passes 0, 1, 2, ...; pass ``p`` spends ``dt`` seconds
over sector ``p mod N`` and offers that sector's surveillance resources.
Within a pass, eligible tasks run in strict priority order, least recently
illuminated first (ties by id), and execution stops at the first task that
no longer fits the remaining resources.  Once every task has run, the update
cycle ends at that pass boundary and the next cycle begins with the next
pass.

Policies:

* ``partition``: only tasks assigned to the current sector are eligible.
* ``broadside``: identical mechanics, meant to be driven by the trivial
  home-sector partition.
* ``edf``: no partition; every task whose field of view covers the current
  sector is eligible, so the oldest illumination anywhere near broadside
  runs first.

A task larger than every pass it is eligible for would deadlock the cycle;
instead the simulator runs it alone in one pass, overfilling it, and flags
the violation in ``SimulationTrace.warnings``.

Mechanism: tasks sit in buckets, a sector's assigned tasks for partition
and broadside, the tasks homed in a sector for edf.  A pass reaches its own
bucket, or for edf the buckets of every sector in its field of view.  A
task's priority ``(last illumination, id)`` changes only when it runs, and
it runs once per cycle, so each bucket is sorted once at the start of a
cycle and a pass runs a prefix of the merge of its reachable buckets: a
heap of bucket heads is popped until the first task that does not fit.  A
pass costs O(k + r log k) for k reachable buckets and r tasks run, a cycle
adds O(T log T) for T tasks, and "larger than every pass" is one comparison
against the bucket's largest reachable resources.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .loads import SchedulePartition, check_partition
from .model import CAP_SLACK, Scenario, active_sectors, angular_sector_distance

POLICY_PARTITION = "partition"
POLICY_BROADSIDE = "broadside"
POLICY_EDF = "edf"
POLICY_VARIANTS = (POLICY_PARTITION, POLICY_BROADSIDE, POLICY_EDF)


@dataclass(frozen=True)
class SimPolicy:
    """Which tasks are eligible per pass; in-pass order is always oldest first."""

    variant: str = POLICY_PARTITION

    def __post_init__(self):
        if self.variant not in POLICY_VARIANTS:
            raise InvalidInputError(
                f"policy variant {self.variant!r} not one of {POLICY_VARIANTS}")

    @property
    def needs_partition(self) -> bool:
        return self.variant in (POLICY_PARTITION, POLICY_BROADSIDE)


@dataclass(frozen=True)
class ExecutionRecord:
    """One task execution: where, when, and at what offset within its pass."""

    task_id: int
    sector: int
    pass_index: int
    rotation: int
    start_offset: float
    timestamp: float


@dataclass(frozen=True)
class SimulationTrace:
    """Time-ordered execution records plus per-task illumination history."""

    records: tuple[ExecutionRecord, ...]
    illumination: Mapping[int, tuple[float, ...]]
    completion_pass: int
    n_passes: int
    cycles_completed: int
    warnings: tuple[str, ...] = ()


def simulate(scenario: Scenario, policy: SimPolicy | str,
             partition: SchedulePartition | None = None,
             cycles: int = 1) -> SimulationTrace:
    """Run ``cycles`` complete update cycles and return the trace.

    A partition is required for the partition and broadside variants and
    must not be supplied for edf.  The produced trace is re-checked with the
    independent validator; any capacity excess must match an oversized-task
    warning, otherwise the simulator refuses its own output.
    """
    if isinstance(policy, str):
        policy = SimPolicy(policy)
    if not isinstance(cycles, int) or cycles < 1:
        raise InvalidInputError(f"cycles={cycles!r} must be a positive integer")
    if policy.needs_partition:
        if partition is None:
            raise InvalidInputError(f"policy {policy.variant!r} requires a partition")
        problems = check_partition(scenario, partition)
        if problems:
            raise InvalidInputError("partition does not match scenario: "
                                    + "; ".join(problems))
    elif partition is not None:
        raise InvalidInputError("edf policy does not take a partition")

    n = scenario.n_sectors
    dt = scenario.dt
    warnings = [
        f"sector {j}: resources {scenario.resources[j]} exceed pass duration {dt}"
        for j in range(n) if scenario.resources[j] > dt
    ]
    by_id = scenario.task_by_id()
    if not by_id:
        return SimulationTrace(records=(), illumination={}, completion_pass=-1,
                               n_passes=0, cycles_completed=0,
                               warnings=tuple(warnings))

    if policy.needs_partition:
        members = [list(ids) for ids in partition.assignments]
        reach = [(j,) for j in range(n)]
        reach_max = list(scenario.resources)
    else:
        members = [[] for _ in range(n)]
        for tid, task in by_id.items():
            if not 0 <= task.home_sector < n:
                raise InvalidInputError(
                    f"task {tid}: home sector {task.home_sector!r} outside [0, {n})")
            members[task.home_sector].append(tid)
        # The field of view is symmetric: pass j reaches home h exactly
        # when a pass over h would reach j.
        reach = [active_sectors(j, scenario.fov_half_width, n) for j in range(n)]
        reach_max = [max(scenario.resources[j] for j in reach[h]) for h in range(n)]

    last_time: dict[int, float] = {tid: -math.inf for tid in by_id}
    records: list[ExecutionRecord] = []
    illumination: dict[int, list[float]] = {tid: [] for tid in by_id}
    overfilled: set[int] = set()
    completion_pass = -1
    cycles_done = 0
    n_tasks = len(by_id)
    pass_cap = cycles * n * (n_tasks + 2)  # progress guard, never reached in practice

    remaining = 0
    pass_index = 0
    while cycles_done < cycles:
        if pass_index > pass_cap:
            raise RuntimeError("simulation failed to make progress")
        if not remaining:
            # New cycle: priorities hold until each task runs once more, so
            # every bucket is sorted once, head (oldest) at the end.
            buckets = [sorted(((last_time[tid], tid) for tid in ids), reverse=True)
                       for ids in members]
            remaining = n_tasks
        sector = pass_index % n
        budget = scenario.resources[sector]
        heads = [(bucket[-1], h) for h in reach[sector] if (bucket := buckets[h])]
        heapq.heapify(heads)
        used = 0.0
        ran = 0
        while heads:
            (_, tid), h = heads[0]
            duration = by_id[tid].duration
            oversized = used + duration > budget + CAP_SLACK
            if oversized and (ran or duration <= reach_max[h] + CAP_SLACK):
                break
            bucket = buckets[h]
            bucket.pop()
            if bucket:
                heapq.heapreplace(heads, (bucket[-1], h))
            else:
                heapq.heappop(heads)
            timestamp = pass_index * dt + used
            records.append(ExecutionRecord(
                task_id=tid, sector=sector, pass_index=pass_index,
                rotation=pass_index // n, start_offset=used, timestamp=timestamp))
            illumination[tid].append(timestamp)
            last_time[tid] = timestamp
            used += duration
            ran += 1
            remaining -= 1
            if oversized:
                # Larger than every pass that reaches it: run it alone
                # rather than deadlocking the cycle.
                overfilled.add(pass_index)
                warnings.append(
                    f"task {tid} (duration {duration}) overfills sector "
                    f"{sector} (resources {budget}) in pass {pass_index}")
                break
        if not remaining:
            if completion_pass < 0:
                completion_pass = pass_index
            cycles_done += 1
        pass_index += 1

    trace = SimulationTrace(
        records=tuple(records),
        illumination={tid: tuple(ts) for tid, ts in illumination.items()},
        completion_pass=completion_pass,
        n_passes=pass_index,
        cycles_completed=cycles_done,
        warnings=tuple(warnings),
    )
    unexplained = [
        problem for problem in check_trace(scenario, trace)
        if not any(problem.startswith(f"pass {p} uses ") for p in overfilled)
    ]
    if unexplained:
        raise RuntimeError("simulator produced an invalid trace: "
                           + "; ".join(unexplained))
    return trace


def replay_assignment(scenario: Scenario,
                      assignments: Mapping[int, tuple[int, int]]) -> SimulationTrace:
    """Replay a (sector, rotation) assignment as a single update cycle.

    Every task executes in exactly the pass its assignment names, in id
    order within the pass, so the trace's completion pass equals the
    assignment's own objective.  Useful for cross-checking the exact solver
    against the trace validator.
    """
    by_id = scenario.task_by_id()
    unknown = sorted(set(assignments) - set(by_id))
    if unknown:
        raise InvalidInputError(f"assignment references unknown task ids {unknown}")
    missing = sorted(set(by_id) - set(assignments))
    if missing:
        raise InvalidInputError(f"assignment misses task ids {missing}")
    n = scenario.n_sectors
    by_pass: dict[int, list[int]] = {}
    for tid, (sector, rotation) in assignments.items():
        if not (0 <= sector < n) or rotation < 0:
            raise InvalidInputError(
                f"task {tid}: pass (sector={sector}, rotation={rotation}) out of range")
        by_pass.setdefault(rotation * n + sector, []).append(tid)
    records = []
    illumination = {}
    for pass_index in sorted(by_pass):
        used = 0.0
        for tid in sorted(by_pass[pass_index]):
            timestamp = pass_index * scenario.dt + used
            records.append(ExecutionRecord(
                task_id=tid, sector=pass_index % n, pass_index=pass_index,
                rotation=pass_index // n, start_offset=used, timestamp=timestamp))
            illumination[tid] = (timestamp,)
            used += by_id[tid].duration
    last = records[-1].pass_index if records else -1
    return SimulationTrace(
        records=tuple(records), illumination=illumination,
        completion_pass=last, n_passes=last + 1,
        cycles_completed=1 if records else 0)


def check_trace(scenario: Scenario, trace: SimulationTrace) -> list[str]:
    """Independent trace validator.

    Re-derives pass loads, field-of-view feasibility, and once-per-cycle
    coverage straight from the records, sharing no state with the simulator.
    """
    problems: list[str] = []
    by_id = scenario.task_by_id()
    n = scenario.n_sectors

    load_by_pass: dict[int, float] = {}
    previous = (-1, -math.inf)
    for rec in trace.records:
        # Execution order is (pass, offset); raw timestamps may interleave
        # when a sector's resources exceed the kinematic pass duration.
        if (rec.pass_index, rec.start_offset) < previous:
            problems.append(f"records out of execution order at pass {rec.pass_index}")
        previous = (rec.pass_index, rec.start_offset)
        task = by_id.get(rec.task_id)
        if task is None:
            problems.append(f"record references unknown task {rec.task_id}")
            continue
        if rec.sector != rec.pass_index % n:
            problems.append(
                f"record for task {rec.task_id}: sector {rec.sector} "
                f"does not match pass {rec.pass_index}")
        dist = angular_sector_distance(rec.sector, task.home_sector, n)
        if dist > scenario.fov_half_width:
            problems.append(
                f"task {rec.task_id} executed {dist} sectors from home in pass "
                f"{rec.pass_index} (fov half-width {scenario.fov_half_width})")
        load_by_pass[rec.pass_index] = load_by_pass.get(rec.pass_index, 0.0) + task.duration
    for p, used in sorted(load_by_pass.items()):
        cap = scenario.resources[p % n]
        if used > cap + CAP_SLACK:
            problems.append(f"pass {p} uses {used}, sector resources {cap}")

    # Once-per-cycle coverage, cycle boundaries re-derived from the records.
    if by_id:
        all_ids = set(by_id)
        current: set[int] = set()
        for rec in trace.records:
            if rec.task_id in current:
                problems.append(
                    f"task {rec.task_id} executed twice within one cycle "
                    f"(pass {rec.pass_index})")
                continue
            current.add(rec.task_id)
            if current == all_ids:
                current = set()
    return problems


@dataclass(frozen=True, eq=False)
class TaskRevisit:
    """Per-task revisit intervals; ``exec_sector`` is the most recent one used."""

    task_id: int
    home_sector: int
    exec_sector: int
    intervals_s: tuple[float, ...]
    max_interval_s: float
    max_interval_rot: float


@dataclass(frozen=True, eq=False)
class RevisitStats:
    per_task: tuple[TaskRevisit, ...]
    max_interval_s: float
    max_interval_rot: float
    mean_interval_s: float
    mean_interval_rot: float
    per_sector_max_rot: np.ndarray

    def __post_init__(self):
        self.per_sector_max_rot.setflags(write=False)


def revisit_stats(trace: SimulationTrace, scenario: Scenario) -> RevisitStats:
    """Intervals between consecutive illuminations of each task.

    Needs at least two completed cycles, since an interval takes two
    illuminations of the same direction.  The rotation-denominated metric is
    interval over ``n_sectors * dt``.  A scenario without tasks has nothing
    to revisit: its stats are empty and every interval figure is 0.
    """
    by_id = scenario.task_by_id()
    if not by_id:
        return RevisitStats(
            per_task=(), max_interval_s=0.0, max_interval_rot=0.0,
            mean_interval_s=0.0, mean_interval_rot=0.0,
            per_sector_max_rot=np.zeros(scenario.n_sectors))
    if trace.cycles_completed < 2:
        raise InsufficientDataError(
            f"revisit intervals need >= 2 completed cycles, trace has "
            f"{trace.cycles_completed}")
    rotation = scenario.rotation_time
    last_sector = {rec.task_id: rec.sector for rec in trace.records}

    per_task = []
    all_intervals: list[float] = []
    per_sector = np.zeros(scenario.n_sectors)
    for tid in sorted(by_id):
        times = trace.illumination.get(tid, ())
        intervals = tuple(b - a for a, b in zip(times, times[1:]))
        if not intervals:
            raise InsufficientDataError(f"task {tid} was illuminated fewer than twice")
        worst = max(intervals)
        per_task.append(TaskRevisit(
            task_id=tid,
            home_sector=by_id[tid].home_sector,
            exec_sector=last_sector[tid],
            intervals_s=intervals,
            max_interval_s=worst,
            max_interval_rot=worst / rotation,
        ))
        all_intervals.extend(intervals)
        home = by_id[tid].home_sector
        per_sector[home] = max(per_sector[home], worst / rotation)
    return RevisitStats(
        per_task=tuple(per_task),
        max_interval_s=max(all_intervals),
        max_interval_rot=max(all_intervals) / rotation,
        mean_interval_s=float(np.mean(all_intervals)),
        mean_interval_rot=float(np.mean(all_intervals)) / rotation,
        per_sector_max_rot=per_sector,
    )


@dataclass(frozen=True, eq=False)
class ResourceEstimate:
    """Smoothed per-sector available time, seconds.  Extension hook.

    When per-sector resources are set by an external resource manager rather
    than known ahead of time, they can be estimated from observed usage.
    Nothing in the scheduling pipeline depends on this; it feeds scenarios
    for re-planning.
    """

    available: np.ndarray
    alpha: float

    def __post_init__(self):
        self.available.setflags(write=False)


def measure_resources(used_per_pass: Sequence[float], n_sectors: int, dt: float,
                      alpha: float) -> ResourceEstimate:
    """Exponentially smoothed estimate of per-sector available time.

    Pass ``p`` observes sector ``p mod n_sectors``.  Each observation
    contributes ``dt - used``; a sector's first observation initializes its
    estimate, later ones blend in with weight ``alpha``.  Estimates are
    clamped at zero, so usage beyond ``dt`` never drives them negative.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha={alpha!r} outside (0, 1]")
    if n_sectors < 1:
        raise InvalidInputError(f"n_sectors={n_sectors!r} must be >= 1")
    if dt <= 0:
        raise InvalidInputError(f"dt={dt!r} must be positive")
    estimates = np.zeros(n_sectors)
    seeded = [False] * n_sectors
    for p, used in enumerate(used_per_pass):
        if used < 0:
            raise InvalidInputError(f"negative usage {used!r} in pass {p}")
        j = p % n_sectors
        observed = max(dt - used, 0.0)
        if not seeded[j]:
            estimates[j] = observed
            seeded[j] = True
        else:
            estimates[j] = max((1.0 - alpha) * estimates[j] + alpha * observed, 0.0)
    return ResourceEstimate(available=estimates, alpha=alpha)
