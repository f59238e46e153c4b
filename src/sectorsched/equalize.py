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

Mechanism and cost.  One window list holds the unassigned tasks of the homes
in reach of the current sector as ``(duration, id, home)``, sorted
ascending.  The own phase is :func:`maximal_subset` over the sector's own
unassigned tasks, and its picks leave the window.  The field-of-view fill
is first-fit in the order (-duration, distance, id) while the room left
only shrinks, so the task it takes next is the longest one that fits, ties
going to the nearer home, then the lower id.  ``used + duration`` rises
with the duration, so the tasks that fit form a prefix of the window, and
one binary search on ``cap - used``, corrected a step at a time against
the very comparison first-fit makes, ``used + duration <= cap``, finds its
end: a rearranged form can round differently.  Moving to the next sector
drops the unassigned tasks of the home that leaves reach and inserts those
of the home that enters it; a window that reaches every sector never
slides.  With W tasks in the window, about (2w + 1) / N of them all, the
sweep sorts the first window once, then costs, per pick and per task that
enters or leaves the window, one O(log W) search and one list insert or
delete, plus one step per task of equal duration when the longest fit is
tied.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
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

_duration = itemgetter(0)  # of a window entry (duration, id, home)


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
    lo, hi = offsets[0], offsets[-1]
    by_id = scenario.task_by_id()
    by_home: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]
    for task in scenario.tasks:
        h = scenario.home[task.id]
        by_home[h].append((task.duration, task.id, h))
    window = sorted(e for c in offsets for e in by_home[c % n])

    sector_of_task: dict[int, int] = {}
    provenance: dict[int, str] = {}
    loads = [0.0] * n

    for i in range(n):
        if i and len(offsets) < n:
            # One sector on: home i - 1 + lo leaves reach, home i + hi enters.
            for entry in by_home[(i - 1 + lo) % n]:
                if entry[1] not in sector_of_task:
                    del window[bisect_left(window, entry)]
            for entry in by_home[(i + hi) % n]:
                if entry[1] not in sector_of_task:
                    insort(window, entry)
        cap = targets[i] + CAP_SLACK
        own = maximal_subset([by_id[tid] for _, tid, _ in by_home[i]
                              if tid not in sector_of_task], targets[i])
        used = 0.0
        for tid in own:
            d = by_id[tid].duration
            used += d
            sector_of_task[tid] = i
            provenance[tid] = PROVENANCE_OWN
            del window[bisect_left(window, (d, tid, i))]

        k = len(window)
        while k:
            # Entries up to k - 1 fit: the search's answer, stepped back or
            # forward until it agrees with ``used + d <= cap``.
            k = bisect_right(window, cap - used, 0, k, key=_duration)
            while k and used + window[k - 1][0] > cap:
                k -= 1
            while k < len(window) and used + window[k][0] <= cap:
                k += 1
            if not k:
                break
            d = window[k - 1][0]
            pick = k - 1
            if pick and window[pick - 1][0] == d:
                # Tied durations: the nearer home wins, then the lower id.
                first = bisect_left(window, d, 0, k, key=_duration)
                pick = min(range(first, k), key=lambda j: (
                    min((window[j][2] - i) % n, (i - window[j][2]) % n), window[j][1]))
            _, tid, _ = window.pop(pick)
            used += d
            sector_of_task[tid] = i
            provenance[tid] = PROVENANCE_FOV
            k -= 1
        loads[i] = used

    leftovers = sorted((-d, tid, h) for entries in by_home
                       for d, tid, h in entries if tid not in sector_of_task)
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
