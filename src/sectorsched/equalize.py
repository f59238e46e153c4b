"""Greedy revisit-time equalization.

The scheduler sweeps the sectors once.  For each sector it first packs the
sector's own unassigned tasks up to the sector's continuous target, then
extends the pick with unassigned tasks from anywhere in the sector's field
of view, under the same target.  Both picks are first-fit in one fixed order
(longest first, then nearer home, then lower id) and maximal: no remaining
candidate fits under the cap.  Whatever is left after the sweep is handed
out, longest first, to the field-of-view sector whose relative load grows
least; ties go to the nearer sector, then the lower index.

The result is a partition in which every sector's load hugs its fair share
as closely as the task granularity allows, so all sectors need a similar
number of rotations to drain.

Mechanism and cost.  The tasks are sorted once, by (-duration, id), into one
list per home sector.  A task is deleted from its list when it is assigned,
so the lists always hold exactly the unassigned tasks, in fill order.  The
own phase is :func:`maximal_subset` over the sector's own list.  The
field-of-view phase merges the lists of the homes in reach with a heap of
their heads keyed (-duration, distance, id), which is the order a sort of
every candidate would give.  A head that does not fit moves its home forward to the first
entry that does: the room left only shrinks, so first-fit would reject every
skipped entry too.  The skip applies the very comparison first-fit makes,
``used + duration <= cap``, because a rearranged form can round differently.
With T tasks and half-width w, the sweep costs one O(T log T) sort plus, per
sector, O(w log w) heap work and one step per task taken or skipped, where a
home none of whose tasks fits costs one comparison.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Sequence

from .errors import InfeasibleScenarioError
from .loads import (
    PROVENANCE_FOV,
    PROVENANCE_LEFTOVER,
    PROVENANCE_OWN,
    SchedulePartition,
    build_partition,
    sector_targets,
)
from .model import CAP_SLACK, Scenario, SurveillanceTask, fov_offsets
from .model import validate_scenario  # noqa: F401  perfbench's tracer patches it here


def maximal_subset(candidates: Sequence[SurveillanceTask], budget: float,
                   already_used: float = 0.0) -> list[int]:
    """First-fit selection, longest first (ties by id), capped at ``budget``.

    Returns ids whose durations, on top of ``already_used``, stay within the
    budget, and such that no rejected candidate would still fit: the pick is
    maximal.  An empty pick is valid (and maximal) whenever the budget is
    already exhausted, since durations are strictly positive.
    """
    chosen: list[int] = []
    used = already_used
    for task in sorted(candidates, key=lambda t: (-t.duration, t.id)):
        if used + task.duration <= budget + CAP_SLACK:
            chosen.append(task.id)
            used += task.duration
    return chosen


def equalize(scenario: Scenario) -> SchedulePartition:
    """Partition all tasks over the sectors, flattening relative loads.

    The scenario is valid by construction.  Raises
    :class:`InfeasibleScenarioError` when some leftover task sees only
    zero-target sectors in its field of view.
    """
    n = scenario.n_sectors
    targets = sector_targets(scenario).targets
    offsets = fov_offsets(scenario.fov_half_width, n)
    by_id = scenario.task_by_id()
    by_home: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for task in sorted(scenario.tasks, key=lambda t: (-t.duration, t.id)):
        by_home[scenario.home[task.id]].append((task.duration, task.id))

    sector_of_task: dict[int, int] = {}
    provenance: dict[int, str] = {}
    loads = [0.0] * n

    for i in range(n):
        cap = targets[i] + CAP_SLACK
        own = maximal_subset([by_id[tid] for _, tid in by_home[i]], targets[i])
        used = 0.0
        for tid in own:
            used += by_id[tid].duration
            sector_of_task[tid] = i
            provenance[tid] = PROVENANCE_OWN
        if own:
            taken = set(own)
            by_home[i] = [e for e in by_home[i] if e[1] not in taken]

        heads = []
        for c in offsets:
            home = (i + c) % n
            entries = by_home[home]
            if entries and used + entries[-1][0] <= cap:
                d, tid = entries[0]
                heads.append((-d, abs(c), tid, home, 0))
        heapify(heads)
        while heads:
            neg_d, dist, tid, home, k = heads[0]
            d = -neg_d
            entries = by_home[home]
            if used + d <= cap:
                used += d
                sector_of_task[tid] = i
                provenance[tid] = PROVENANCE_FOV
                del entries[k]
            elif used + entries[-1][0] > cap:
                k = len(entries)
            else:
                k += 1
                while used + entries[k][0] > cap:
                    k += 1
            if k < len(entries):
                d, tid = entries[k]
                heapreplace(heads, (-d, dist, tid, home, k))
            else:
                heappop(heads)
        loads[i] = used

    leftovers = sorted((-d, tid, home)
                       for home, entries in enumerate(by_home) for d, tid in entries)
    for neg_d, tid, home in leftovers:
        d = -neg_d
        best = None
        for c in offsets:
            j = (home + c) % n
            if targets[j] > 0.0:
                key = ((loads[j] + d) / targets[j], abs(c), j)
                if best is None or key < best:
                    best = key
        if best is None:
            raise InfeasibleScenarioError(
                f"task {tid}: every sector in its field of view has zero target")
        j = best[2]
        sector_of_task[tid] = j
        provenance[tid] = PROVENANCE_LEFTOVER
        loads[j] += d

    return build_partition(n, sector_of_task, provenance)
