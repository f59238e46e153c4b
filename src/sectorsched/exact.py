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
passes up to P.  Passes of one sector with bitwise-equal residual capacity
are interchangeable within a horizon, so only the first of each such group
is tried.  The first horizon that admits a schedule is optimal provided no
smaller horizon search was cut short by the node budget.

Module constants cap the instance (``MAX_TASKS``, ``MAX_SECTORS``) and the
horizon (``MAX_ROTATIONS``); :class:`SearchLimits` holds the node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InfeasibleScenarioError, InvalidInputError, LimitsExceededError
from .model import (CAP_SLACK, Scenario, SurveillanceTask, angular_sector_distance,
                    as_tuple, check_count, check_number, fov_offsets)
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

    The scenario is valid by construction, so only its size is checked.
    Raises :class:`LimitsExceededError` past ``MAX_TASKS`` tasks or
    ``MAX_SECTORS`` sectors, or when the node budget dies with no schedule in
    hand, and :class:`InfeasibleScenarioError` when some task fits no pass
    at all or nothing completes within ``MAX_ROTATIONS`` rotations.
    """
    if not isinstance(limits, SearchLimits):
        raise InvalidInputError(f"limits must be a SearchLimits, not {type(limits).__name__}")
    if len(scenario.tasks) > MAX_TASKS:
        raise LimitsExceededError(f"{len(scenario.tasks)} tasks exceed max_tasks={MAX_TASKS}")
    if scenario.n_sectors > MAX_SECTORS:
        raise LimitsExceededError(f"{scenario.n_sectors} sectors exceed max_sectors={MAX_SECTORS}")
    if not scenario.tasks:
        return ExactSolution(assignments={}, objective=-1, optimal=True)

    n = scenario.n_sectors
    caps = [scenario.resources[p % n] for p in range(MAX_ROTATIONS * n)]

    tasks = sorted(scenario.tasks, key=lambda t: (-t.duration, t.id))
    offsets = fov_offsets(scenario.fov_half_width, n)
    home_passes = {h: sorted((r * n + (h + c) % n, (h + c) % n)
                             for r in range(MAX_ROTATIONS) for c in offsets)
                   for h in set(scenario.home.values())}
    passes = [home_passes[scenario.home[t.id]] for t in tasks]
    for task, eligible in zip(tasks, passes):
        if task.duration > max(caps[p] for p, _ in eligible) + CAP_SLACK:
            raise InfeasibleScenarioError(
                f"task {task.id}: duration {task.duration} exceeds every "
                f"sector resource in its field of view")

    lower = _lower_bound(scenario, tasks, home_passes, caps)
    incumbent = _first_fit_schedule(tasks, passes, caps)

    budget = [limits.node_budget]
    top = max(incumbent.values()) if incumbent else len(caps)
    for bound in range(lower, top):
        try:
            found = _fits_within(tasks, passes, caps, bound, budget)
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


def _solution(pass_of_task: dict[int, int], n: int, optimal: bool) -> ExactSolution:
    assignments = {tid: (p % n, p // n) for tid, p in pass_of_task.items()}
    return ExactSolution(assignments=assignments,
                         objective=max(pass_of_task.values()),
                         optimal=optimal)


def _lower_bound(scenario, tasks, home_passes, caps) -> int:
    """Smallest pass index worth testing: all passes must cover the total
    demand, and each home's candidate passes that home's demand, less
    ``CAP_SLACK``; a demand within it of zero is covered from pass 0 on."""
    demand_by_home: dict[int, float] = {}
    for t in tasks:
        home = scenario.home[t.id]
        demand_by_home[home] = demand_by_home.get(home, 0.0) + t.duration
    return max([_covering_pass(range(len(caps)), caps, math.fsum(t.duration for t in tasks)),
                *(_covering_pass((p for p, _ in home_passes[h]), caps, demand)
                  for h, demand in demand_by_home.items() if demand > CAP_SLACK)])


def _covering_pass(pass_indices, caps, demand) -> int:
    """First of the ascending ``pass_indices`` whose prefix capacity covers
    ``demand`` less ``CAP_SLACK``."""
    acc = 0.0
    for p in pass_indices:
        acc += caps[p]
        if acc >= demand - CAP_SLACK:
            return p
    return len(caps)


def _first_fit_schedule(tasks, passes, caps) -> dict[int, int] | None:
    """Quick incumbent: first fitting pass per task, longest tasks first."""
    residual = list(caps)
    out: dict[int, int] = {}
    for task, eligible in zip(tasks, passes):
        for p, _ in eligible:
            if task.duration <= residual[p] + CAP_SLACK:
                residual[p] -= task.duration
                out[task.id] = p
                break
        else:
            return None
    return out


def _fits_within(tasks, passes, caps, bound, budget) -> dict[int, int] | None:
    """Decision search: schedule all tasks into passes 0..bound, or prove none exists."""
    residual = caps[: bound + 1]
    durations = [t.duration for t in tasks]
    eligible = [[(p, sector) for p, sector in ps if p <= bound] for ps in passes]
    placed = [0] * len(tasks)

    # No total-capacity test: deepening starts at _lower_bound, so passes
    # 0..bound hold the whole demand (less CAP_SLACK), and each placement
    # takes the same duration from the residual and from the demand left.
    # Room minus demand never drops below -CAP_SLACK beyond rounding; inside
    # that band such a test would only refuse what the per-pass rule accepts.
    def recurse(index: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        if index == len(durations):
            return True
        duration = durations[index]
        tried: set[tuple[int, float]] = set()
        for p, sector in eligible[index]:
            room_p = residual[p]
            if duration > room_p + CAP_SLACK:
                continue
            key = (sector, room_p)
            if key in tried:
                continue
            tried.add(key)
            residual[p] = room_p - duration
            placed[index] = p
            if recurse(index + 1):
                return True
            residual[p] = room_p
        return False

    return {t.id: p for t, p in zip(tasks, placed)} if recurse(0) else None


def check_assignment(scenario: Scenario,
                     assignments: Mapping[int, tuple[int, int]]) -> list[str]:
    """Independent validity check of a (sector, rotation) assignment.

    Verifies coverage (every task exactly once), that each entry is a
    (sector, rotation) pair of ints, field of view at the executing sector,
    and per-pass resource limits.  Kept separate from the search so solver
    bugs cannot vouch for themselves.
    """
    problems: list[str] = []
    by_id = scenario.task_by_id()
    missing = sorted(set(by_id) - set(assignments))
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    load: dict[tuple[int, int], float] = {}
    for tid, entry in assignments.items():
        task = by_id.get(tid)
        if task is None:
            problems.append(f"task {tid} not part of the scenario")
            continue
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and type(entry[0]) is int and type(entry[1]) is int):  # a bool is no index
            problems.append(f"task {tid}: pass {entry!r} is not a (sector, rotation) pair of ints")
            continue
        sector, rotation = entry
        if not (0 <= sector < scenario.n_sectors) or rotation < 0:
            problems.append(f"task {tid}: pass (sector={sector}, rotation={rotation}) out of range")
            continue
        dist = angular_sector_distance(sector, scenario.home[tid], scenario.n_sectors)
        if dist > scenario.fov_half_width:
            problems.append(
                f"task {tid} executed {dist} sectors from home "
                f"(fov half-width {scenario.fov_half_width})")
        load[(sector, rotation)] = load.get((sector, rotation), 0.0) + task.duration
    for (sector, rotation), used in sorted(load.items()):
        if used > scenario.resources[sector] + CAP_SLACK:
            problems.append(
                f"pass (sector={sector}, rotation={rotation}) uses {used}, "
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
    sector_width = 2.0 * math.pi / n
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
