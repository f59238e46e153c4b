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
ascending.  One first-fit routine makes both fills: the own phase runs it
on the sector's unassigned own tasks, sorted the same way, and its picks
then leave the window; the field-of-view phase runs it on the window.  The
fill is first-fit in the order (-duration, distance, id) while the room left
only shrinks, so the task it takes next is the longest one that fits, ties
going to the nearer home, then the lower id.  ``used + duration`` rises
with the duration, so the tasks that fit form a prefix of the pool, and
one binary search on ``cap - used``, corrected a step at a time against
the very comparison first-fit makes, ``used + duration <= cap``, finds its
end: a rearranged form can round differently.  Moving to the next sector
drops the unassigned tasks of the home that leaves reach and inserts those
of the home that enters it, the same home when the window reaches every
sector.  With W tasks in the window, about (2w + 1) / N of them all, the
sweep sorts the first window once, then costs, per pick and per task that
enters or leaves the window, one O(log W) search and one list insert or
delete, plus one step per task of equal duration when the longest fit is
tied.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Sequence

from .errors import InfeasibleScenarioError, InvalidInputError
from .loads import (
    PROVENANCE_FOV,
    PROVENANCE_LEFTOVER,
    PROVENANCE_OWN,
    SchedulePartition,
    build_partition,
    sector_targets,
)
from .model import (CAP_SLACK, Scenario, SurveillanceTask, as_tasks, check_instance,
                    check_number, fov_offsets)
from .model import validate_scenario  # noqa: F401  perfbench's tracer patches it here

_duration = itemgetter(0)  # of a pool entry (duration, id, home)


def _first_fit(pool: list[tuple[float, int, int]], cap: float, used: float,
               i: int, n: int) -> tuple[float, list[tuple[float, int, int]]]:
    """Pop first-fit picks for sector ``i`` of ``n`` from a sorted pool, each
    the longest entry with ``used + duration <= cap``, ties to the home nearer
    ``i``, then the lower id.  Returns the new ``used`` and the picks in order."""
    picks = []
    k = len(pool)
    while k:
        # pool[:k] fits: the search's answer, stepped to agree with ``used + d <= cap``.
        k = bisect_right(pool, cap - used, 0, k, key=_duration)
        while k and not used + pool[k - 1][0] <= cap:
            k -= 1
        while k < len(pool) and used + pool[k][0] <= cap:
            k += 1
        if not k:
            break
        d = pool[k - 1][0]
        pick = k - 1
        if pick and pool[pick - 1][0] == d:
            # Tied durations: the nearer home wins, then the lower id.
            first = bisect_left(pool, d, 0, k, key=_duration)
            pick = min(range(first, k), key=lambda j: (
                min((pool[j][2] - i) % n, (i - pool[j][2]) % n), pool[j][1]))
        picks.append(pool.pop(pick))
        used += d
        k -= 1
    return used, picks


def maximal_subset(candidates: Sequence[SurveillanceTask], budget: float,
                   already_used: float = 0.0) -> list[int]:
    """First-fit selection, longest first (ties by id), capped at ``budget``.

    Returns ids whose durations, on top of ``already_used``, stay within the
    budget, and such that no rejected candidate would still fit: the pick is
    maximal, and empty when the budget is already exhausted (durations are
    strictly positive).  Both phases of :func:`equalize` run the same
    ``_first_fit`` this function wraps, not this function itself.
    ``candidates`` must be an iterable of tasks, and ``budget`` and
    ``already_used`` finite numbers.
    """
    candidates = as_tasks(candidates, "candidates")
    for value, name in ((budget, "budget"), (already_used, "already_used")):
        check_number(value, name)
        if not math.isfinite(value):
            raise InvalidInputError(f"{name}={value!r} must be finite")
    pool = sorted((t.duration, t.id, 0) for t in candidates)
    return [tid for _, tid, _ in _first_fit(pool, budget + CAP_SLACK, already_used, 0, 1)[1]]


def equalize(scenario: Scenario) -> SchedulePartition:
    """Partition all tasks over the sectors, flattening relative loads.

    The scenario is valid by construction; an argument that is not a
    :class:`Scenario` raises :class:`InvalidInputError`.  Raises
    :class:`InfeasibleScenarioError` when some leftover task sees only
    zero-target sectors in its field of view.
    """
    check_instance(scenario, Scenario)
    n = scenario.n_sectors
    targets = sector_targets(scenario).targets
    offsets = fov_offsets(scenario.fov_half_width, n)
    lo, hi = offsets[0], offsets[-1]
    by_home: list[list[tuple[float, int, int]]] = [[] for _ in range(n)]
    for task in scenario.tasks:
        h = scenario.home[task.id]
        by_home[h].append((task.duration, task.id, h))
    window = sorted(e for c in offsets for e in by_home[c % n])

    sector_of_task: dict[int, int] = {}
    provenance: dict[int, str] = {}
    loads = [0.0] * n

    for i in range(n):
        if i:
            # One sector on: home i - 1 + lo leaves reach, home i + hi enters.
            for entry in by_home[(i - 1 + lo) % n]:
                if entry[1] not in sector_of_task:
                    del window[bisect_left(window, entry)]
            for entry in by_home[(i + hi) % n]:
                if entry[1] not in sector_of_task:
                    insort(window, entry)
        cap = targets[i] + CAP_SLACK
        used, own = _first_fit(sorted(e for e in by_home[i] if e[1] not in sector_of_task),
                               cap, 0.0, i, n)
        for entry in own:
            del window[bisect_left(window, entry)]
        used, fov = _first_fit(window, cap, used, i, n)
        for tag, picks in ((PROVENANCE_OWN, own), (PROVENANCE_FOV, fov)):
            for _, tid, _ in picks:
                sector_of_task[tid] = i
                provenance[tid] = tag
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
