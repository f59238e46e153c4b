"""Exact small-instance solver: minimize the last sector pass needed.

Passes are numbered 0, 1, 2, ...; pass ``p`` sweeps sector ``p mod N`` and
offers that sector's resources once.  A schedule assigns every task to a
pass whose sector lies in the task's field of view, without overfilling any
pass.  The objective is the largest pass index used, so an objective below
``N`` means everything fits into a single rotation.

The search runs iterative deepening on the objective: for each candidate
horizon it asks whether all tasks fit into passes 0..P, branching on tasks
in descending duration and on passes in ascending index.  Passes of the same
sector with bitwise-equal residual capacity are interchangeable within a
fixed horizon, so only the first of each such group is tried.  The first
horizon that admits a schedule is optimal provided no smaller horizon search
was cut short by the node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InfeasibleScenarioError, InvalidInputError, LimitsExceededError
from .model import CAP_SLACK, Scenario, angular_sector_distance, make_task
from .model import validate_scenario  # noqa: F401  perfbench's tracer patches it here


@dataclass(frozen=True)
class SearchLimits:
    """Instance-size guardrails for the exponential search."""

    max_tasks: int = 12
    max_sectors: int = 8
    max_rotations: int = 5
    node_budget: int = 10_000_000

    def __post_init__(self):
        for name in ("max_tasks", "max_sectors", "max_rotations", "node_budget"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be positive")


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
    Raises :class:`LimitsExceededError` when the instance is larger than
    ``limits`` allow (or the budget dies with no schedule in hand), and
    :class:`InfeasibleScenarioError` when some task fits no pass at all or
    nothing completes within ``limits.max_rotations`` rotations.
    """
    if len(scenario.tasks) > limits.max_tasks:
        raise LimitsExceededError(
            f"{len(scenario.tasks)} tasks exceed max_tasks={limits.max_tasks}")
    if scenario.n_sectors > limits.max_sectors:
        raise LimitsExceededError(
            f"{scenario.n_sectors} sectors exceed max_sectors={limits.max_sectors}")
    if not scenario.tasks:
        return ExactSolution(assignments={}, objective=-1, optimal=True)

    n = scenario.n_sectors
    horizon = limits.max_rotations * n
    caps = [scenario.resources[p % n] for p in range(horizon)]

    tasks = sorted(scenario.tasks, key=lambda t: (-t.duration, t.id))
    feasible_sectors = {}
    for task in tasks:
        okay = [j for j in range(n)
                if angular_sector_distance(j, task.home_sector, n) <= scenario.fov_half_width]
        feasible_sectors[task.id] = set(okay)
        if task.duration > max(scenario.resources[j] for j in okay) + CAP_SLACK:
            raise InfeasibleScenarioError(
                f"task {task.id}: duration {task.duration} exceeds every "
                f"sector resource in its field of view")

    lower = _lower_bound(scenario, tasks, feasible_sectors, caps)
    incumbent = _first_fit_schedule(tasks, feasible_sectors, caps, n)

    budget = [limits.node_budget]
    aborted = False
    top = max(incumbent.values()) if incumbent else horizon
    for bound in range(lower, top):
        try:
            found = _fits_within(tasks, feasible_sectors, caps[: bound + 1], n, budget)
        except _BudgetExhausted:
            aborted = True
            break
        if found is not None:
            return _solution(found, n, optimal=not aborted)
    if incumbent is not None:
        return _solution(incumbent, n, optimal=not aborted)
    if aborted:
        raise LimitsExceededError("node budget exhausted before any schedule was found")
    raise InfeasibleScenarioError(
        f"no schedule exists within {limits.max_rotations} rotations")


def _solution(pass_of_task: dict[int, int], n: int, optimal: bool) -> ExactSolution:
    assignments = {tid: (p % n, p // n) for tid, p in pass_of_task.items()}
    return ExactSolution(assignments=assignments,
                         objective=max(pass_of_task.values()),
                         optimal=optimal)


def _lower_bound(scenario, tasks, feasible_sectors, caps) -> int:
    """Smallest pass index worth testing: capacity and FOV-group necessities."""
    horizon = len(caps)
    total = math.fsum(t.duration for t in tasks)
    bounds = [_prefix_passes(caps, range(scenario.n_sectors), scenario.n_sectors, total)]
    demand_by_home: dict[int, float] = {}
    for t in tasks:
        demand_by_home[t.home_sector] = demand_by_home.get(t.home_sector, 0.0) + t.duration
    for home, demand in demand_by_home.items():
        sectors = feasible_sectors[next(t.id for t in tasks if t.home_sector == home)]
        bounds.append(_prefix_passes(caps, sectors, scenario.n_sectors, demand))
    return min(max(bounds), horizon)


def _prefix_passes(caps, sectors, n, demand) -> int:
    """First pass index whose prefix capacity over ``sectors`` covers ``demand``."""
    sectors = set(sectors)
    acc = 0.0
    for p, cap in enumerate(caps):
        if p % n in sectors:
            acc += cap
        if acc >= demand - CAP_SLACK:
            return p
    return len(caps)


def _first_fit_schedule(tasks, feasible_sectors, caps, n) -> dict[int, int] | None:
    """Quick incumbent: first fitting pass per task, longest tasks first."""
    residual = list(caps)
    out: dict[int, int] = {}
    for task in tasks:
        for p, room in enumerate(residual):
            if p % n in feasible_sectors[task.id] and task.duration <= room + CAP_SLACK:
                residual[p] -= task.duration
                out[task.id] = p
                break
        else:
            return None
    return out


def _fits_within(tasks, feasible_sectors, caps, n, budget) -> dict[int, int] | None:
    """Decision search: schedule all tasks into the given passes, or prove none exists."""
    residual = list(caps)
    assignment: dict[int, int] = {}
    suffix_demand = [0.0] * (len(tasks) + 1)
    for i in range(len(tasks) - 1, -1, -1):
        suffix_demand[i] = suffix_demand[i + 1] + tasks[i].duration

    def recurse(index: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        if index == len(tasks):
            return True
        remaining = suffix_demand[index]
        room = math.fsum(max(r, 0.0) for r in residual)
        if room + CAP_SLACK < remaining:
            return False
        task = tasks[index]
        sectors = feasible_sectors[task.id]
        tried: set[tuple[int, float]] = set()
        for p, room_p in enumerate(residual):
            if p % n not in sectors:
                continue
            if task.duration > room_p + CAP_SLACK:
                continue
            key = (p % n, room_p)
            if key in tried:
                continue
            tried.add(key)
            residual[p] = room_p - task.duration
            assignment[task.id] = p
            if recurse(index + 1):
                return True
            residual[p] = room_p
            del assignment[task.id]
        return False

    return dict(assignment) if recurse(0) else None


def check_assignment(scenario: Scenario,
                     assignments: Mapping[int, tuple[int, int]]) -> list[str]:
    """Independent validity check of a (sector, rotation) assignment.

    Verifies coverage (every task exactly once), field of view at the
    executing sector, and per-pass resource limits.  Kept separate from the
    search so solver bugs cannot vouch for themselves.
    """
    problems: list[str] = []
    by_id = scenario.task_by_id()
    missing = sorted(set(by_id) - set(assignments))
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    load: dict[tuple[int, int], float] = {}
    for tid, (sector, rotation) in assignments.items():
        task = by_id.get(tid)
        if task is None:
            problems.append(f"task {tid} not part of the scenario")
            continue
        if not (0 <= sector < scenario.n_sectors) or rotation < 0:
            problems.append(f"task {tid}: pass (sector={sector}, rotation={rotation}) out of range")
            continue
        dist = angular_sector_distance(sector, task.home_sector, scenario.n_sectors)
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
    """
    if not item_sizes or not bin_capacities:
        raise InvalidInputError("item sizes and bin capacities must be non-empty")
    for cap in bin_capacities:
        if not cap > 0:
            raise InvalidInputError(f"non-positive bin capacity {cap!r}")
    n = len(bin_capacities)
    sector_width = 2.0 * math.pi / n
    tasks = tuple(
        make_task(k, phi=sector_width * (k + 0.5) / len(item_sizes), theta=0.0,
                  duration=float(size), n_sectors=n)
        for k, size in enumerate(item_sizes)
    )
    return Scenario(
        n_sectors=n,
        fov_half_width=n // 2,
        dt=1.0,
        resources=tuple(float(c) for c in bin_capacities),
        tasks=tasks,
    )
