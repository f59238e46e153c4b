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
  The broadside baseline is this variant fed ``broadside_baseline``, the
  trivial home-sector partition.
* ``edf``: no partition; every task whose field of view covers the current
  sector is eligible, so the oldest illumination anywhere near broadside
  runs first.

A task larger than every pass it is eligible for would deadlock the cycle;
instead the simulator runs it alone in one pass, overfilling it, and flags
the violation in ``SimulationTrace.warnings``.

Mechanism: tasks sit in buckets, a sector's assigned tasks for partition,
the tasks homed in a sector for edf.  A pass over sector j reaches the
buckets (j + c) mod N for c in a window of offsets: ``0..0`` for
partition, ``model.fov_offsets`` for edf.  A task's
priority ``(last illumination, id)`` changes only when it runs, and it runs
once per cycle, so each bucket is sorted once at the start of a cycle and a
pass runs a prefix of the merge of its reachable buckets, popping a heap of
bucket heads until the first task that does not fit.  That heap lasts the
whole cycle.  Moving from sector j to j + 1 retires bucket (j + lo) mod N
by bumping its generation stamp, so its entry is dropped when it reaches
the top, and pushes the head of bucket (j + 1 + hi) mod N; a window that
covers all N sectors never rolls.  A pass costs O(log k + r log k) for k
reachable buckets and r tasks run, a cycle adds O(T log T) for T tasks and
the heap rebuild, and "larger than every pass" is one comparison against
the bucket's largest reachable resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from operator import sub
from typing import Mapping, NamedTuple, Sequence

from .errors import InsufficientDataError, InvalidInputError
from .loads import SchedulePartition, check_partition
from .model import CAP_SLACK, Scenario, fov_offsets

POLICY_PARTITION = "partition"
POLICY_EDF = "edf"
POLICY_VARIANTS = (POLICY_PARTITION, POLICY_EDF)


class ExecutionRecord(NamedTuple):
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


def simulate(scenario: Scenario, policy: str,
             partition: SchedulePartition | None = None,
             cycles: int = 1) -> SimulationTrace:
    """Run ``cycles`` complete update cycles and return the trace.

    ``policy`` is one of ``POLICY_VARIANTS``.  A partition is required for
    the partition variant and must not be supplied for edf.  The scenario is
    valid by construction; a partition that :func:`check_partition` rejects
    raises :class:`InvalidInputError`.
    The produced trace is re-checked with the independent validator; any
    capacity excess must match an oversized-task warning, otherwise the
    simulator refuses its own output.
    """
    if policy not in POLICY_VARIANTS:
        raise InvalidInputError(
            f"policy variant {policy!r} not one of {POLICY_VARIANTS}")
    if not isinstance(cycles, int) or cycles < 1:
        raise InvalidInputError(f"cycles={cycles!r} must be a positive integer")
    if policy != POLICY_EDF:
        if partition is None:
            raise InvalidInputError(f"policy {policy!r} requires a partition")
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

    if policy != POLICY_EDF:
        members = [list(ids) for ids in partition.assignments]
        window = range(0, 1)
    else:
        members = [[] for _ in range(n)]
        for tid, task in by_id.items():
            members[task.home_sector].append(tid)
        window = fov_offsets(scenario.fov_half_width, n)
    lo, hi = window[0], window[-1]
    # A pass over j reaches buckets j + lo .. j + hi.  The window is
    # symmetric, so bucket h is reached from sectors h + lo .. h + hi: its
    # largest reachable resources are a slice of the ring laid out thrice.
    ring = scenario.resources * 3
    reach_max = [max(ring[n + h + lo:n + h + hi + 1]) for h in range(n)]
    rolls = len(window) < n
    duration_of = {tid: task.duration for tid, task in by_id.items()}

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
        sector = pass_index % n
        if not remaining:
            # New cycle: priorities hold until each task runs once more, so
            # every bucket is sorted once, head (oldest) at the end, and the
            # heap of the window's heads is built once.  Entries are
            # (head, bucket, generation).
            buckets = [sorted(((last_time[tid], tid) for tid in ids), reverse=True)
                       for ids in members]
            generation = [0] * n
            heads = [(buckets[h][-1], h, 0)
                     for h in ((sector + c) % n for c in window) if buckets[h]]
            heapify(heads)
            remaining = n_tasks
        elif rolls:
            # One sector on: bucket (sector - 1 + lo) leaves the window and
            # its entry goes stale; bucket (sector + hi) enters it.
            generation[(sector - 1 + lo) % n] += 1
            h = (sector + hi) % n
            if bucket := buckets[h]:
                heappush(heads, (bucket[-1], h, generation[h]))
        budget = scenario.resources[sector]
        rotation = pass_index // n
        start = pass_index * dt
        used = 0.0
        ran = 0
        while heads:
            (_, tid), h, stamp = heads[0]
            if stamp != generation[h]:
                heappop(heads)
                continue
            duration = duration_of[tid]
            oversized = used + duration > budget + CAP_SLACK
            if oversized and (ran or duration <= reach_max[h] + CAP_SLACK):
                break
            bucket = buckets[h]
            bucket.pop()
            if bucket:
                heapreplace(heads, (bucket[-1], h, stamp))
            else:
                heappop(heads)
            timestamp = start + used
            records.append(ExecutionRecord(
                tid, sector, pass_index, rotation, used, timestamp))
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


def check_trace(scenario: Scenario, trace: SimulationTrace) -> list[str]:
    """Independent trace validator.

    Re-derives pass loads, field-of-view feasibility, and once-per-cycle
    coverage straight from the records, sharing no state with the simulator.
    """
    problems: list[str] = []
    by_id = scenario.task_by_id()
    n = scenario.n_sectors
    w = scenario.fov_half_width

    load_by_pass: dict[int, float] = {}
    previous = (-1, -math.inf)
    for tid, sector, p, _, offset, _ in trace.records:
        # Execution order is (pass, offset); raw timestamps may interleave
        # when a sector's resources exceed the kinematic pass duration.
        if (p, offset) < previous:
            problems.append(f"records out of execution order at pass {p}")
        previous = (p, offset)
        task = by_id.get(tid)
        if task is None:
            problems.append(f"record references unknown task {tid}")
            continue
        if sector != p % n:
            problems.append(
                f"record for task {tid}: sector {sector} does not match pass {p}")
        # Cyclic distance min(d, N - d) exceeds w exactly when w < d < N - w.
        d = (sector - task.home_sector) % n
        if w < d < n - w:
            problems.append(
                f"task {tid} executed {min(d, n - d)} sectors from home in pass "
                f"{p} (fov half-width {w})")
        load_by_pass[p] = load_by_pass.get(p, 0.0) + task.duration
    for p, used in sorted(load_by_pass.items()):
        cap = scenario.resources[p % n]
        if used > cap + CAP_SLACK:
            problems.append(f"pass {p} uses {used}, sector resources {cap}")

    # Once-per-cycle coverage, cycle boundaries re-derived from the records.
    if by_id:
        all_ids = set(by_id)
        current: set[int] = set()
        for tid, _, p, _, _, _ in trace.records:
            if tid in current:
                problems.append(
                    f"task {tid} executed twice within one cycle (pass {p})")
                continue
            current.add(tid)
            if current == all_ids:
                current = set()
    return problems


class TaskRevisit(NamedTuple):
    """A task's worst revisit interval; ``exec_sector`` is the most recent one used."""

    task_id: int
    home_sector: int
    exec_sector: int
    max_interval_s: float
    max_interval_rot: float


@dataclass(frozen=True)
class RevisitStats:
    per_task: tuple[TaskRevisit, ...]
    max_interval_s: float
    max_interval_rot: float
    mean_interval_s: float
    mean_interval_rot: float
    per_sector_max_rot: tuple[float, ...]


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
            per_sector_max_rot=(0.0,) * scenario.n_sectors)
    if trace.cycles_completed < 2:
        raise InsufficientDataError(
            f"revisit intervals need >= 2 completed cycles, trace has "
            f"{trace.cycles_completed}")
    rotation = scenario.rotation_time
    last_sector = {tid: sector for tid, sector, _, _, _, _ in trace.records}

    per_task = []
    all_intervals: list[float] = []
    per_sector = [0.0] * scenario.n_sectors
    for tid in sorted(by_id):
        times = trace.illumination.get(tid, ())
        intervals = tuple(map(sub, times[1:], times))
        if not intervals:
            raise InsufficientDataError(f"task {tid} was illuminated fewer than twice")
        worst = max(intervals)
        worst_rot = worst / rotation
        home = by_id[tid].home_sector
        per_task.append(TaskRevisit(tid, home, last_sector[tid], worst, worst_rot))
        all_intervals.extend(intervals)
        if worst_rot > per_sector[home]:
            per_sector[home] = worst_rot
    worst = max(all_intervals)
    mean = math.fsum(all_intervals) / len(all_intervals)
    return RevisitStats(
        per_task=tuple(per_task),
        max_interval_s=worst,
        max_interval_rot=worst / rotation,
        mean_interval_s=mean,
        mean_interval_rot=mean / rotation,
        per_sector_max_rot=tuple(per_sector),
    )


@dataclass(frozen=True)
class ResourceEstimate:
    """Smoothed per-sector available time, seconds.  Extension hook.

    When per-sector resources are set by an external resource manager rather
    than known ahead of time, they can be estimated from observed usage.
    Nothing in the scheduling pipeline depends on this; it feeds scenarios
    for re-planning.
    """

    available: tuple[float, ...]
    alpha: float


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
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInputError(f"dt={dt!r} must be positive and finite")
    estimates = [0.0] * n_sectors
    seeded = [False] * n_sectors
    for p, used in enumerate(used_per_pass):
        if not used >= 0:
            raise InvalidInputError(f"usage {used!r} in pass {p} is not a non-negative number")
        j = p % n_sectors
        observed = max(dt - used, 0.0)
        if not seeded[j]:
            estimates[j] = observed
            seeded[j] = True
        else:
            estimates[j] = max((1.0 - alpha) * estimates[j] + alpha * observed, 0.0)
    return ResourceEstimate(available=tuple(estimates), alpha=alpha)
