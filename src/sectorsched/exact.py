"""Exact small-instance solver: minimize the last sector pass needed.

Passes are numbered 0, 1, 2, ...; pass ``p`` sweeps sector ``p mod N`` and
offers that sector's resources once.  A schedule assigns every task to a
pass whose sector lies in the task's field of view, without overfilling any
pass.  The objective is the largest pass index used, so an objective below
``N`` means everything fits into a single rotation.

The field of view is one list per home sector of its candidate passes, those
whose sector lies in the home's field of view, in ascending index, built once
per call.  It drives the feasibility test, the deepening start, the first-fit
incumbent and the search.  The search runs iterative deepening on the
objective: for each horizon P it asks whether all tasks fit into passes
0..P, branching on tasks in descending duration and on their candidate
passes up to P.  Passes of one sector with equal residual capacity are
interchangeable within a horizon, so only the first of each such group
is tried.  Two cuts end a branch early.  By count: its passes cannot hold
as many tasks as are left, since a pass takes at most as many more tasks as
the shortest durations that fit its residual.  By lost room: a pass that
cannot take even the shortest task left keeps its residual unused, and once
that unusable room is more than the horizon's surplus of capacity over
demand, with a margin of ``CAP_SLACK`` per pass, no schedule completes.
Neither cut changes the branching order, so each horizon finds the same
first schedule as an unpruned search.  Deepening starts where the prefix
capacity covers the demand, allowing ``CAP_SLACK`` per pass as the fit test
does.  The first horizon that admits a schedule is optimal provided no
smaller horizon search was cut short by the node budget.  Every float is a
dyadic rational, so the search reads ``CAP_SLACK``, the resources and the
durations as ints on one power-of-two scale, where its sums and comparisons
are exact and no decision depends on the order a pass was filled in.

Module constants cap the instance (``MAX_TASKS``, ``MAX_SECTORS``) and the
horizon (``MAX_ROTATIONS``); :class:`SearchLimits` holds the node budget.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import InfeasibleScenarioError, InvalidInputError, LimitsExceededError
from .model import (CAP_SLACK, Scenario, SurveillanceTask, as_tuple, check_count,
                    check_instance, check_number, fov_offsets)
from .model import validate_scenario  # noqa: F401  perfbench's tracer patches it here

MAX_TASKS = 12
MAX_SECTORS = 8
MAX_ROTATIONS = 5


@dataclass(frozen=True)
class SearchLimits:
    """Node budget of the exponential search: a positive int."""

    node_budget: int = 10_000_000

    def __post_init__(self):
        check_count(self.node_budget, "node_budget")


@dataclass(frozen=True)
class ExactSolution:
    """Result of the exact search.

    ``assignments`` maps task id to (sector, rotation); the pass index of an
    assignment is ``rotation * n_sectors + sector``.  ``objective`` is the
    largest pass index used (-1 for an empty task set).  ``optimal`` is False
    when the node budget expired before optimality was proven.
    """

    assignments: Mapping[int, tuple[int, int]]
    objective: int
    optimal: bool


class _BudgetExhausted(Exception):
    pass


def exact_min_passes(scenario: Scenario, limits: SearchLimits = SearchLimits()) -> ExactSolution:
    """Branch-and-bound minimum of the last used pass index.

    The scenario is valid by construction, so only its type and size are
    checked.  Raises :class:`InvalidInputError` for an argument that is not
    a :class:`Scenario` or a :class:`SearchLimits`,
    :class:`LimitsExceededError` past ``MAX_TASKS`` tasks or ``MAX_SECTORS``
    sectors, or when the node budget dies with no schedule in hand, and
    :class:`InfeasibleScenarioError` when some task fits no pass at all or
    nothing completes within ``MAX_ROTATIONS`` rotations.
    """
    check_instance(scenario, Scenario)
    if not isinstance(limits, SearchLimits):
        raise InvalidInputError(f"limits must be a SearchLimits, not {type(limits).__name__}")
    if len(scenario.tasks) > MAX_TASKS:
        raise LimitsExceededError(f"{len(scenario.tasks)} tasks exceed max_tasks={MAX_TASKS}")
    if scenario.n_sectors > MAX_SECTORS:
        raise LimitsExceededError(f"{scenario.n_sectors} sectors exceed max_sectors={MAX_SECTORS}")
    if not scenario.tasks:
        return ExactSolution(assignments={}, objective=-1, optimal=True)

    n = scenario.n_sectors
    tasks = sorted(scenario.tasks, key=lambda t: (-t.duration, t.id))
    (slack, *ints), _ = _scaled([CAP_SLACK, *scenario.resources, *(t.duration for t in tasks)])
    caps = [ints[p % n] + slack for p in range(MAX_ROTATIONS * n)]  # a pass may overfill by slack
    durations = ints[n:]

    offsets = fov_offsets(scenario.fov_half_width, n)
    home_passes = {h: sorted(r * n + (h + c) % n for r in range(MAX_ROTATIONS) for c in offsets)
                   for h in set(scenario.home.values())}
    passes = [home_passes[scenario.home[t.id]] for t in tasks]
    for task, duration, eligible in zip(tasks, durations, passes):
        if duration > max(caps[p] for p in eligible):
            raise InfeasibleScenarioError(
                f"task {task.id}: duration {task.duration} exceeds every "
                f"sector resource in its field of view")

    lower = _lower_bound([scenario.home[t.id] for t in tasks], durations, home_passes, caps)
    incumbent = _first_fit_schedule(tasks, durations, passes, caps)

    budget = [limits.node_budget]
    top = max(incumbent.values()) if incumbent else len(caps)
    for bound in range(lower, top):
        try:
            found = _fits_within(tasks, durations, passes, caps, slack, n, bound, budget)
        except _BudgetExhausted:
            if incumbent is None:
                raise LimitsExceededError(
                    "node budget exhausted before any schedule was found") from None
            return _solution(incumbent, n, optimal=False)
        if found is not None:
            return _solution(found, n, optimal=True)
    if incumbent is None:
        raise InfeasibleScenarioError(f"no schedule exists within {MAX_ROTATIONS} rotations")
    return _solution(incumbent, n, optimal=True)


def _scaled(values) -> tuple[list[int], int]:
    """``values`` as exact ints on one scale, the largest of their
    power-of-two denominators (every float is a dyadic rational), and that scale."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [a * (scale // d) for a, d in ratios], scale


def _solution(pass_of_task: dict[int, int], n: int, optimal: bool) -> ExactSolution:
    assignments = {tid: (p % n, p // n) for tid, p in pass_of_task.items()}
    return ExactSolution(assignments=assignments,
                         objective=max(pass_of_task.values()),
                         optimal=optimal)


def _lower_bound(homes, durations, home_passes, caps) -> int:
    """Smallest pass index worth testing: all passes must cover the total
    demand, and each home's candidate passes that home's demand, so a home
    needs at least its first candidate pass."""
    demand_by_home: dict[int, int] = {}
    for home, duration in zip(homes, durations):
        demand_by_home[home] = demand_by_home.get(home, 0) + duration
    return max([_covering_pass(range(len(caps)), caps, sum(durations)),
                *(_covering_pass(home_passes[h], caps, demand)
                  for h, demand in demand_by_home.items())])


def _covering_pass(pass_indices, caps, demand) -> int:
    """First of the ascending ``pass_indices`` whose prefix capacity covers ``demand``."""
    acc = 0
    for p in pass_indices:
        acc += caps[p]
        if acc >= demand:
            return p
    return len(caps)


def _first_fit_schedule(tasks, durations, passes, caps) -> dict[int, int] | None:
    """Quick incumbent: first fitting pass per task, longest tasks first."""
    residual = list(caps)
    out: dict[int, int] = {}
    for task, duration, eligible in zip(tasks, durations, passes):
        for p in eligible:
            if duration <= residual[p]:
                residual[p] -= duration
                out[task.id] = p
                break
        else:
            return None
    return out


def _fits_within(tasks, durations, passes, caps, slack, n, bound, budget) -> dict[int, int] | None:
    """Decision search: schedule all tasks into passes 0..bound, or prove none exists."""
    residual = caps[: bound + 1]
    eligible = [[(p, p % n) for p in ps if p <= bound] for ps in passes]
    placed = [0] * len(tasks)

    # A count of tasks: the unplaced tasks are a suffix of the longest-first
    # order, so any k of them take at least shortest[k - 1], the sum of the k
    # shortest durations, and a pass with room r takes at most
    # bisect_right(shortest, r) more.  A branch whose passes cannot hold as
    # many tasks as are left is cut.
    shortest = list(accumulate(reversed(durations)))
    fit_count = [bisect_right(shortest, room) for room in residual]
    count = sum(fit_count)
    if count < len(tasks):
        return None

    # Lost room: the shortest task, durations[-1], stays unplaced to the
    # end, so a pass whose fit_count is 0 takes nothing more and its room is
    # unused in any completion.  Every other pass ends with room of at least
    # 0, its slack included, and room minus demand is the same at every node,
    # so a branch is cut once the lost room, not counting the slack of its
    # passes, exceeds that surplus.
    surplus = sum(residual) - sum(durations)
    lost = sum(room - slack for room, fit in zip(residual, fit_count) if not fit)
    if lost > surplus:
        return None

    def recurse(index: int, lost: int) -> bool:
        nonlocal count
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        if index == len(durations):
            return True
        duration = durations[index]
        left = len(durations) - index - 1
        tried: set[tuple[int, int]] = set()
        for p, sector in eligible[index]:
            room_p = residual[p]
            if duration > room_p:
                continue
            key = (sector, room_p)
            if key in tried:
                continue
            tried.add(key)
            room_after = room_p - duration
            fit_p = fit_count[p]
            fit_after = bisect_right(shortest, room_after)
            if count - fit_p + fit_after < left:
                continue
            lost_after = lost if fit_after or not left else lost + room_after - slack
            if lost_after > surplus:
                continue
            count += fit_after - fit_p
            fit_count[p] = fit_after
            residual[p] = room_after
            placed[index] = p
            if recurse(index + 1, lost_after):
                return True
            residual[p] = room_p
            fit_count[p] = fit_p
            count -= fit_after - fit_p
        return False

    return {t.id: p for t, p in zip(tasks, placed)} if recurse(0, lost) else None


def check_assignment(scenario: Scenario,
                     assignments: Mapping[int, tuple[int, int]]) -> list[str]:
    """Independent validity check of a (sector, rotation) assignment.

    Verifies coverage (every task exactly once, under its ``int`` id), that
    each entry is a (sector, rotation) pair of ints, field of view at the
    executing sector, and per-pass resource limits, each pass's load summed
    exactly so the verdict does not depend on the mapping's order.  Kept
    separate from the search so solver bugs cannot vouch for themselves.  A
    scenario that is not a :class:`Scenario`, or assignments that are not a
    mapping, are one problem.
    """
    if not isinstance(scenario, Scenario):
        return [f"expected a Scenario, not {type(scenario).__name__}"]
    if not isinstance(assignments, Mapping):
        return [f"expected a mapping of task id to (sector, rotation), "
                f"not {type(assignments).__name__}"]
    problems: list[str] = []
    n, w = scenario.n_sectors, scenario.fov_half_width
    (slack, *ints), scale = _scaled([CAP_SLACK, *scenario.resources,
                                     *(t.duration for t in scenario.tasks)])
    duration_of = dict(zip((t.id for t in scenario.tasks), ints[n:]))
    # A bool or float key equals an int id, so ids are matched only as ints.
    missing = sorted(set(duration_of) - {tid for tid in assignments if type(tid) is int})
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    load: dict[tuple[int, int], int] = {}
    for tid, entry in assignments.items():
        if type(tid) is not int:
            problems.append(f"task id {tid!r} is not an int")
            continue
        if tid not in duration_of:
            problems.append(f"task {tid} not part of the scenario")
            continue
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and type(entry[0]) is int and type(entry[1]) is int):  # a bool is no index
            problems.append(f"task {tid}: pass {entry!r} is not a (sector, rotation) pair of ints")
            continue
        sector, rotation = entry
        if not (0 <= sector < n) or rotation < 0:
            problems.append(f"task {tid}: pass (sector={sector}, rotation={rotation}) out of range")
            continue
        d = (sector - scenario.home[tid]) % n  # the cyclic distance is min(d, n - d)
        if w < d < n - w:
            problems.append(f"task {tid} executed {min(d, n - d)} sectors from home "
                            f"(fov half-width {w})")
        load[(sector, rotation)] = load.get((sector, rotation), 0) + duration_of[tid]
    for (sector, rotation), used in sorted(load.items()):
        if used > ints[sector] + slack:
            problems.append(
                f"pass (sector={sector}, rotation={rotation}) uses {used / scale}, "
                f"resources {scenario.resources[sector]}")
    return problems


def bin_packing_reduce(item_sizes: Sequence[float],
                       bin_capacities: Sequence[float]) -> Scenario:
    """Encode a bin-packing instance as a scheduling scenario.

    Bins become sectors with their capacities as resources, items become
    tasks homed in sector 0, and the field of view is opened to half the
    circle so every sector is reachable.  The packing is feasible exactly
    when the encoded scenario completes within one rotation, i.e. when
    ``exact_min_passes`` reports an objective below the bin count.  An item
    size the scenario rejects as a duration raises :class:`ScenarioValidationError`.
    Each argument is read once, so an iterator serves as well as a list.
    """
    item_sizes = as_tuple(item_sizes, "item sizes")
    bin_capacities = as_tuple(bin_capacities, "bin capacities")
    if not item_sizes or not bin_capacities:
        raise InvalidInputError("item sizes and bin capacities must be non-empty")
    for size in item_sizes:
        check_number(size, "item size")
    for cap in bin_capacities:
        check_number(cap, "bin capacity")
        if not cap > 0:
            raise InvalidInputError(f"non-positive bin capacity {cap!r}")
    n = len(bin_capacities)
    sector_width = math.tau / n
    tasks = tuple(
        SurveillanceTask(k, phi=sector_width * (k + 0.5) / len(item_sizes), theta=0.0,
                         duration=float(size))
        for k, size in enumerate(item_sizes)
    )
    return Scenario(
        n_sectors=n,
        fov_half_width=n // 2,
        dt=1.0,
        resources=tuple(float(c) for c in bin_capacities),
        tasks=tasks,
    )
