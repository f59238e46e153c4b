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
the violation as an ``overfill`` problem in ``SimulationTrace.warnings``.
A trace is its records: illumination histories, the pass count
``n_passes`` and a record's rotation, ``pass_index // n_sectors``, are
derived from them.  A :class:`SimulationTrace` checks its fields once, when
it is built: ``records`` (any iterable, kept as a tuple) are five-field
tuples of an int task id, sector and pass and a number offset and
timestamp, none a bool, each within the float range; ``cycles_completed``
is an int >= 0, ``completion_pass`` an int.  A sector or pass out of range
is a value :func:`check_trace` reports; every reader trusts the rest.
:func:`simulate` builds its own trace without the walk over the records:
they hold only ints of the scenario and float sums, which meet the rule,
:func:`check_trace` re-checks them, and a property test rebuilds every
trace it draws through the checked constructor.

Mechanism: tasks sit in buckets, a sector's assigned tasks for partition,
the tasks homed in a sector for edf.  A pass over sector j reaches the
buckets (j + c) mod N for c in a window of offsets: ``0..0`` for
partition, ``model.fov_offsets`` for edf.  A task's priority
``(last illumination, id)`` changes only when it runs, and it runs once per
cycle, so at the start of a cycle all T tasks are sorted once and each gets
its rank, 0 the oldest; a bucket holds its ranks in order.  A pass runs a
prefix of the merge of its reachable buckets until the first task that
does not fit.  A window one bucket wide, as for partition, merges nothing:
the pass runs a prefix of the sector's own bucket straight from its tail,
in O(r) for r tasks run, and overfills only with its first task: the
passes over the sector are the only ones that reach its bucket.  A wider
window pops a heap of plain int ranks, the bucket heads, that lasts the
whole cycle.  Bucket h is in the window of sector j when (h - j - lo)
mod N is below the window's width, so moving from j to j + 1 only pushes
the head of bucket (j + 1 + hi) mod N, which enters it.  An entry whose
bucket is out of the window, or which is no longer its bucket's head, is
stale and dropped when it reaches the top; a head pushed twice, as when
the bucket that leaves a window of all N sectors re-enters it at once, is
dropped the second time.  Such a pass costs O(log k + r log k) for k
reachable buckets, a cycle adds O(T log T) for the ranking and the heap
rebuild, and "larger than every pass" is one comparison against the
bucket's largest reachable resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush, heapreplace
from typing import NamedTuple, Sequence

from .errors import InvalidInputError
from .loads import SchedulePartition, check_partition
from .model import (CAP_SLACK, Scenario, as_tuple, check_count, check_instance, check_number,
                    check_positive, finite_fsum, fov_offsets)

POLICY_PARTITION = "partition"
POLICY_EDF = "edf"
POLICY_VARIANTS = (POLICY_PARTITION, POLICY_EDF)

# Most records one simulate call may make, cycles x tasks: the records are
# kept, so a finite but huge cycle count would run until memory runs out.
# Admits two cycles of the largest scenario GenParams allows
# (2 x generate.MAX_GENERATED tasks).
MAX_RECORDS = 2_000_000


class ExecutionRecord(NamedTuple):
    """One task execution: where, when, and at what offset within its pass."""

    task_id: int
    sector: int
    pass_index: int
    start_offset: float
    timestamp: float


class TraceProblem(NamedTuple):
    """A trace finding: its kind, pass and task (``None`` if none), and message."""

    kind: str
    pass_index: int | None
    task_id: int | None
    detail: str


@dataclass(frozen=True)
class SimulationTrace:
    """Time-ordered execution records and the simulator's warnings, of kinds
    ``resources`` (resources beyond the pass duration) and ``overfill``.
    Built with a field that breaks the rule of the module docstring, as by
    ``SimulationTrace(...)`` or ``dataclasses.replace``, it raises
    :class:`InvalidInputError` naming it, as ``records[3].sector``;
    :func:`simulate` alone builds its trace without that check."""

    records: tuple[ExecutionRecord, ...]
    completion_pass: int
    cycles_completed: int
    warnings: tuple[TraceProblem, ...] = ()

    def __post_init__(self):
        records = as_tuple(self.records, "records")
        object.__setattr__(self, "records", records)
        check_count(self.cycles_completed, "cycles_completed", least=0)
        _check_number(self.completion_pass, "completion_pass", is_int=True)
        for i, record in enumerate(records):
            if not (isinstance(record, tuple) and len(record) == 5):
                raise InvalidInputError(f"records[{i}] is not a tuple of five fields")
            for k, field in enumerate(ExecutionRecord._fields):
                _check_number(record[k], f"records[{i}].{field}", is_int=k < 3)

    @property
    def n_passes(self) -> int:
        """Passes swept: one past the last record's pass, 0 without records."""
        return self.records[-1][2] + 1 if self.records else 0

    @cached_property
    def illumination(self) -> dict[int, tuple[float, ...]]:
        """Each executed task's illumination timestamps, in execution order."""
        times: dict[int, list[float]] = {}
        for tid, _, _, _, timestamp in self.records:
            times.setdefault(tid, []).append(timestamp)
        return {tid: tuple(ts) for tid, ts in times.items()}


def _check_number(value, name: str, is_int: bool) -> None:
    """:func:`check_number`, and for ``is_int`` an ``int``, not a ``bool``."""
    if is_int and type(value) is not int:
        raise InvalidInputError(f"{name} must be an int, not {type(value).__name__}")
    check_number(value, name)


def simulate(scenario: Scenario, policy: str,
             partition: SchedulePartition | None = None,
             cycles: int = 1) -> SimulationTrace:
    """Run ``cycles`` complete update cycles and return the trace.

    ``policy`` is one of ``POLICY_VARIANTS``.  A partition is required for
    the partition variant and must not be supplied for edf.  The scenario is
    valid by construction, but an argument that is not a :class:`Scenario`
    raises :class:`InvalidInputError`; so does a partition that
    :func:`check_partition` rejects, and, before the first pass, a request
    for more than ``MAX_RECORDS`` records, ``cycles`` times the task count.
    The produced trace is re-checked with the independent validator; any
    ``overload`` problem must be a pass with an ``overfill`` warning,
    otherwise the simulator refuses its own output.
    """
    if policy not in POLICY_VARIANTS:
        raise InvalidInputError(
            f"policy variant {policy!r} not one of {POLICY_VARIANTS}")
    check_instance(scenario, Scenario)
    check_count(cycles, "cycles")
    if cycles * len(scenario.tasks) > MAX_RECORDS:
        raise InvalidInputError(f"cycles={cycles} x {len(scenario.tasks)} tasks "
                                f"exceeds MAX_RECORDS={MAX_RECORDS} records")
    n = scenario.n_sectors
    if policy == POLICY_EDF:
        if partition is not None:
            raise InvalidInputError("edf policy does not take a partition")
        bucket_of = scenario.home
        window = fov_offsets(scenario.fov_half_width, n)
    else:
        if partition is None:
            raise InvalidInputError(f"policy {policy!r} requires a partition")
        problems = check_partition(scenario, partition)
        if problems:
            raise InvalidInputError("partition does not match scenario: "
                                    + "; ".join(problems))
        bucket_of = partition.sector_index()
        window = range(0, 1)

    dt = scenario.dt
    warnings = [TraceProblem("resources", None, None,
                             f"sector {j}: resources {r} exceed pass duration {dt}")
                for j, r in enumerate(scenario.resources) if r > dt]
    by_id = scenario.task_by_id()
    if not by_id:
        return SimulationTrace(records=(), completion_pass=-1, cycles_completed=0,
                               warnings=tuple(warnings))

    lo, hi, width = window[0], window[-1], len(window)
    # A pass over j reaches buckets j + lo .. j + hi.  The window is
    # symmetric, so bucket h is reached from sectors h + lo .. h + hi: its
    # largest reachable resources are a slice of the ring laid out thrice.
    ring = scenario.resources * 3
    reach_max = [max(ring[n + h + lo:n + h + hi + 1]) for h in range(n)]
    ids = sorted(by_id)

    last_time = dict.fromkeys(ids, -math.inf)
    records: list[ExecutionRecord] = []
    new_record = tuple.__new__  # a namedtuple's own __new__ is a Python call per record
    completion_pass = -1
    cycles_done = 0
    n_tasks = len(ids)
    pass_cap = cycles * n * (n_tasks + 2)  # progress guard, never reached in practice

    remaining = 0
    pass_index = 0
    while cycles_done < cycles:
        if pass_index > pass_cap:
            raise RuntimeError("simulation failed to make progress")
        sector = pass_index % n
        if not remaining:
            # New cycle: priorities hold until each task runs once more, so
            # the tasks are ranked once, oldest first (a stable sort of the
            # ids), and each bucket holds its ranks, head (oldest) at the end.
            order = sorted(ids, key=last_time.__getitem__)
            rank_duration = [by_id[tid].duration for tid in order]
            rank_bucket = [bucket_of[tid] for tid in order]
            buckets = [[] for _ in range(n)]
            for rank in range(n_tasks - 1, -1, -1):
                buckets[rank_bucket[rank]].append(rank)
            heads = [bucket[-1] for c in window if (bucket := buckets[(sector + c) % n])]
            heapify(heads)
            remaining = n_tasks
        elif width > 1 and (bucket := buckets[(sector + hi) % n]):
            # One sector on: bucket (sector + hi) enters the window, and the
            # entry of bucket (sector - 1 + lo), which left it, goes stale.
            heappush(heads, bucket[-1])
        budget = scenario.resources[sector]
        limit = budget + CAP_SLACK
        start = pass_index * dt
        used = 0.0
        ran = 0
        if width == 1:
            # The window is the sector's own bucket (lo == hi == 0): the pass
            # runs a prefix of it straight from its tail.  Only passes over
            # this sector reach the bucket, so a task that overflows the empty
            # pass is larger than every pass that reaches it and runs alone.
            bucket = buckets[sector]
            while bucket:
                rank = bucket[-1]
                duration = rank_duration[rank]
                oversized = used + duration > limit
                if oversized and ran:
                    break
                bucket.pop()
                tid = order[rank]
                timestamp = start + used
                records.append(new_record(ExecutionRecord, (tid, sector, pass_index, used, timestamp)))
                last_time[tid] = timestamp
                used += duration
                ran += 1
                if oversized:
                    break
        else:
            first = sector + lo  # bucket h is in the window if (h - first) % n < width
            while heads:
                rank = heads[0]
                h = rank_bucket[rank]
                bucket = buckets[h]
                if not (bucket and bucket[-1] == rank and (h - first) % n < width):
                    heappop(heads)  # out of the window, or a head already run
                    continue
                duration = rank_duration[rank]
                oversized = used + duration > limit
                if oversized and (ran or duration <= reach_max[h] + CAP_SLACK):
                    break
                bucket.pop()
                if bucket:
                    heapreplace(heads, bucket[-1])
                else:
                    heappop(heads)
                tid = order[rank]
                timestamp = start + used
                records.append(new_record(ExecutionRecord, (tid, sector, pass_index, used, timestamp)))
                last_time[tid] = timestamp
                used += duration
                ran += 1
                if oversized:
                    break
        remaining -= ran
        if used > limit:
            # Only a task larger than every pass that reaches it runs past
            # the limit, alone, rather than deadlocking the cycle.
            warnings.append(TraceProblem(
                "overfill", pass_index, tid, f"task {tid} (duration {duration}) "
                f"overfills sector {sector} (resources {budget}) in pass {pass_index}"))
        if not remaining:
            if completion_pass < 0:
                completion_pass = pass_index
            cycles_done += 1
        pass_index += 1

    # The records hold ints from the scenario and float sums, which meet the
    # record rule, so the trace is built without its walk over them.
    trace = object.__new__(SimulationTrace)
    for name, value in (("records", tuple(records)), ("completion_pass", completion_pass),
                        ("cycles_completed", cycles_done), ("warnings", tuple(warnings))):
        object.__setattr__(trace, name, value)
    explained = {("overload", w.pass_index) for w in warnings if w.kind == "overfill"}
    unexplained = [problem.detail for problem in check_trace(scenario, trace)
                   if (problem.kind, problem.pass_index) not in explained]
    if unexplained:
        raise RuntimeError("simulator produced an invalid trace: "
                           + "; ".join(unexplained))
    return trace


def check_trace(scenario: Scenario, trace: SimulationTrace) -> list[TraceProblem]:
    """Independent trace validator.

    Re-derives pass loads, field-of-view feasibility, once-per-cycle coverage
    and the passes where cycles close straight from the records, in one walk
    over them, sharing no state with the simulator; a record of an unknown
    task is reported once, then left out.  A record's timestamp must be its
    pass start, ``pass_index * dt``, plus its offset, as
    :func:`revisit_stats` assumes.
    One ``cycles`` problem reports closes that disagree with
    ``cycles_completed`` or ``completion_pass``, or records after the last.
    Problems come by kind in this order: per record ``order``,
    ``timestamp``, ``unknown-task``, ``sector``, ``fov``; then ``overload``
    by pass, ``repeat`` by record, and ``cycles`` last.  A ``scenario``
    argument that is not a :class:`Scenario` is one problem of kind
    ``scenario``, and a ``trace`` argument that is not a
    :class:`SimulationTrace` one of kind ``trace``.
    """
    if not isinstance(scenario, Scenario):
        return [TraceProblem("scenario", None, None,
                             f"expected a Scenario, not {type(scenario).__name__}")]
    if not isinstance(trace, SimulationTrace):
        return [TraceProblem("trace", None, None,
                             f"expected a SimulationTrace, not {type(trace).__name__}")]
    problems: list[TraceProblem] = []
    repeats: list[TraceProblem] = []
    duration = {t.id: t.duration for t in scenario.tasks}
    home = scenario.home
    n_tasks = len(home)
    n = scenario.n_sectors
    w = scenario.fov_half_width
    dt = scenario.dt

    # Cyclic distance min(d, N - d) exceeds w exactly when w < d < N - w.
    far = [w < d < n - w for d in range(n)]
    # The walk starts in an empty pass -1.  A pass's start, sector and
    # running load are set when the pass changes; its load is stored when
    # it ends and resumed from there if the pass comes back.
    load_by_pass: dict[int, float] = {}
    previous_p, previous_offset = -1, -math.inf
    start, expected, load = previous_p * dt, previous_p % n, 0.0
    # Once-per-cycle coverage, cycle boundaries re-derived from the records.
    current: set[int] = set()
    closes: list[int] = []
    for tid, sector, p, offset, timestamp in trace.records:
        # Execution order is (pass, offset); raw timestamps may interleave
        # when a sector's resources exceed the kinematic pass duration.
        if p != previous_p:
            if p < previous_p:
                problems.append(TraceProblem(
                    "order", p, tid, f"records out of execution order at pass {p}"))
            load_by_pass[previous_p] = load
            load = load_by_pass.get(p, 0.0)
            start, expected = p * dt, p % n
            previous_p = p
        elif offset < previous_offset:
            problems.append(TraceProblem(
                "order", p, tid, f"records out of execution order at pass {p}"))
        previous_offset = offset
        if timestamp != start + offset:
            problems.append(TraceProblem(
                "timestamp", p, tid, f"record for task {tid}: timestamp {timestamp} is not "
                f"pass {p} start {start} plus offset {offset}"))
        h = home.get(tid)
        if h is None:
            problems.append(TraceProblem(
                "unknown-task", p, tid, f"record references unknown task {tid}"))
            continue
        if sector != expected:
            problems.append(TraceProblem("sector", p, tid, f"record for task {tid}: "
                                         f"sector {sector} does not match pass {p}"))
        d = (sector - h) % n
        if far[d]:
            problems.append(TraceProblem(
                "fov", p, tid, f"task {tid} executed {min(d, n - d)} sectors from "
                f"home in pass {p} (fov half-width {w})"))
        load += duration[tid]
        if tid in current:
            repeats.append(TraceProblem(
                "repeat", p, tid, f"task {tid} executed twice within one cycle (pass {p})"))
            continue
        current.add(tid)
        if len(current) == n_tasks:
            closes.append(p)
            current = set()
    load_by_pass[previous_p] = load
    for p, used in sorted(load_by_pass.items()):
        cap = scenario.resources[p % n]
        if used > cap + CAP_SLACK:
            problems.append(TraceProblem(
                "overload", p, None, f"pass {p} uses {used}, sector resources {cap}"))
    problems += repeats
    first = closes[0] if closes else -1
    if current or (len(closes), first) != (trace.cycles_completed, trace.completion_pass):
        problems.append(TraceProblem(
            "cycles", None, None, f"records close {len(closes)} cycles, the first in "
            f"pass {first}, and leave {len(current)} tasks after the last; the trace "
            f"claims {trace.cycles_completed}, the first in pass {trace.completion_pass}"))
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

    Needs a ``cycles_completed`` of at least two and two illuminations of
    each task, since an interval takes two illuminations of the same
    direction; a shorter trace, intervals that hold a NaN or an infinity or
    sum beyond the float range, or in rotations pass it, a trace that is not a
    :class:`SimulationTrace` or a scenario that is not a :class:`Scenario`
    raises :class:`InvalidInputError`.  The rotation-denominated metric is
    interval over ``n_sectors * dt``.  A scenario without tasks has nothing
    to revisit: its stats are empty and every interval figure is 0.
    One walk over the records keeps each task's latest timestamp and
    sector and its worst interval so far; an interval is the difference of
    consecutive timestamps of a task, as in ``trace.illumination``, and the
    mean is an ``fsum`` over all of them.
    """
    check_instance(trace, SimulationTrace)
    check_instance(scenario, Scenario)
    home = scenario.home
    if not home:
        return RevisitStats(
            per_task=(), max_interval_s=0.0, max_interval_rot=0.0,
            mean_interval_s=0.0, mean_interval_rot=0.0,
            per_sector_max_rot=(0.0,) * scenario.n_sectors)
    if trace.cycles_completed < 2:
        raise InvalidInputError("revisit intervals need >= 2 completed cycles, "
                                f"trace has {trace.cycles_completed}")
    rotation = scenario.rotation_time
    # One walk: each task's latest [timestamp, sector, worst interval so far].
    state = {tid: [None, None, None] for tid in home}
    all_intervals: list[float] = []
    for tid, sector, _, _, timestamp in trace.records:
        seen = state.get(tid)
        if seen is None:
            continue  # not a task of this scenario
        previous, _, worst = seen
        if previous is not None:
            interval = timestamp - previous
            all_intervals.append(interval)
            if worst is None or interval > worst:  # as max() keeps the first of equals
                seen[2] = interval
        seen[0] = timestamp
        seen[1] = sector
    total = finite_fsum(all_intervals)
    if math.isnan(total):  # else every interval converts to a finite float
        raise InvalidInputError("revisit intervals are not finite or sum past the float range")
    per_task = []
    new_revisit = tuple.__new__  # as simulate builds its records
    per_sector = [0.0] * scenario.n_sectors
    for tid, h in sorted(home.items()):
        _, last_sector, worst = state[tid]
        if worst is None:
            raise InvalidInputError(f"task {tid} was illuminated fewer than twice")
        worst_rot = worst / rotation
        per_task.append(new_revisit(TaskRevisit, (tid, h, last_sector, worst, worst_rot)))
        if worst_rot > per_sector[h]:
            per_sector[h] = worst_rot
    worsts = [t.max_interval_s for t in per_task]
    worst, mean = max(worsts), total / len(all_intervals)
    # Finite seconds over a tiny rotation may pass the float range; every
    # task's quotient lies between those of the least and the worst.
    if not all(math.isfinite(s / rotation) for s in (min(worsts), worst, mean)):
        raise InvalidInputError("revisit intervals in rotations pass the float range")
    return RevisitStats(
        per_task=tuple(per_task),
        max_interval_s=worst,
        max_interval_rot=worst / rotation,
        mean_interval_s=mean,
        mean_interval_rot=mean / rotation,
        per_sector_max_rot=tuple(per_sector),
    )


def measure_resources(used_per_pass: Sequence[float], n_sectors: int, dt: float,
                      alpha: float) -> tuple[float, ...]:
    """Exponentially smoothed estimate of per-sector available time, seconds,
    one entry per sector.  Extension hook.

    Pass ``p`` observes sector ``p mod n_sectors``.  Each observation
    contributes ``dt - used``; a sector's first observation initializes its
    estimate, later ones blend in with weight ``alpha``.  Estimates are
    clamped at zero, so usage beyond ``dt`` never drives them negative.
    When per-sector resources are set by an external resource manager rather
    than known ahead of time, they can be estimated from observed usage.
    Nothing in the scheduling pipeline depends on this; it feeds scenarios
    for re-planning.
    """
    check_number(alpha, "alpha")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha={alpha!r} outside (0, 1]")
    check_count(n_sectors, "n_sectors")
    check_positive(dt, "dt")
    try:
        estimates = [0.0] * n_sectors
    except (OverflowError, MemoryError):  # past sys.maxsize, or past any memory
        raise InvalidInputError(f"n_sectors={n_sectors} is more sectors than a list holds") from None
    seeded = [False] * n_sectors
    for p, used in enumerate(as_tuple(used_per_pass, "used_per_pass")):
        if type(used) is not float:
            check_number(used, f"used_per_pass[{p}]")
        if not used >= 0:
            raise InvalidInputError(f"usage {used!r} in pass {p} is not a non-negative number")
        j = p % n_sectors
        observed = max(dt - used, 0.0)
        if not seeded[j]:
            estimates[j] = observed
            seeded[j] = True
        else:
            estimates[j] = max((1.0 - alpha) * estimates[j] + alpha * observed, 0.0)
    return tuple(estimates)
