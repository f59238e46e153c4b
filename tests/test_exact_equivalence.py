"""The exact search against a frozen copy of its unpruned predecessor.

``reference_min_passes`` is the search as it stood before any per-node
bound beyond the fit test: the same field of view, start horizon, first-fit
incumbent, branching order and equal-residual skip, with nothing that cuts
a branch early.  A sound bound may only end searches sooner.  So wherever
the reference proves its answer, the search must return the same plan,
objective and flag, and where the reference runs out of budget, the search
may prove an answer no worse than the reference's incumbent.
"""

import math

import pytest

from sectorsched import (
    CAP_SLACK,
    ExactSolution,
    InfeasibleScenarioError,
    LimitsExceededError,
    exact_min_passes,
)
from sectorsched.model import fov_offsets
from sectorsched.exact import MAX_ROTATIONS, MAX_SECTORS, MAX_TASKS
from test_exact import exact_corpus, node_count_corpus, outcome_of


class _Exhausted(Exception):
    pass


def reference_min_passes(scenario, limits):
    """Iterative deepening from the demand bound, no bound per node."""
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

    def covering_pass(pass_indices, demand):
        acc = 0.0
        for p in pass_indices:
            acc += caps[p]
            if acc >= demand - CAP_SLACK:
                return p
        return len(caps)

    demand_by_home = {}
    for t in tasks:
        home = scenario.home[t.id]
        demand_by_home[home] = demand_by_home.get(home, 0.0) + t.duration
    lower = max([covering_pass(range(len(caps)), math.fsum(t.duration for t in tasks)),
                 *(covering_pass((p for p, _ in home_passes[h]), demand)
                   for h, demand in demand_by_home.items() if demand > CAP_SLACK)])

    residual = list(caps)
    incumbent = {}
    for task, eligible in zip(tasks, passes):
        for p, _ in eligible:
            if task.duration <= residual[p] + CAP_SLACK:
                residual[p] -= task.duration
                incumbent[task.id] = p
                break
        else:
            incumbent = None
            break

    budget = [limits.node_budget]

    def fits_within(bound):
        residual = caps[: bound + 1]
        durations = [t.duration for t in tasks]
        eligible = [[(p, sector) for p, sector in ps if p <= bound] for ps in passes]
        placed = [0] * len(tasks)

        def recurse(index):
            budget[0] -= 1
            if budget[0] < 0:
                raise _Exhausted
            if index == len(durations):
                return True
            duration = durations[index]
            tried = set()
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

    def solution(pass_of_task, optimal):
        return ExactSolution(assignments={tid: (p % n, p // n) for tid, p in pass_of_task.items()},
                             objective=max(pass_of_task.values()), optimal=optimal)

    top = max(incumbent.values()) if incumbent else len(caps)
    for bound in range(lower, top):
        try:
            found = fits_within(bound)
        except _Exhausted:
            if incumbent is None:
                raise LimitsExceededError(
                    "node budget exhausted before any schedule was found") from None
            return solution(incumbent, optimal=False)
        if found is not None:
            return solution(found, optimal=True)
    if incumbent is None:
        raise InfeasibleScenarioError(f"no schedule exists within {MAX_ROTATIONS} rotations")
    return solution(incumbent, optimal=True)


def assert_no_worse(reference, outcome):
    """``outcome`` keeps every answer ``reference`` proved and proves only
    objectives no worse than the reference's incumbent."""
    proven = len(reference) == 3 and reference[2]
    if proven or reference[0] == "InfeasibleScenarioError":
        assert outcome == reference
    elif len(reference) == 3:  # an unproven incumbent, the same first-fit plan unless proven
        assert len(outcome) == 3
        assert outcome[1] <= reference[1] if outcome[2] else outcome == reference
    else:  # budget-out with no plan: any outcome proves more or the same
        assert reference[0] == "LimitsExceededError"


def test_search_keeps_every_answer_the_reference_proves():
    """The 600 runs of the exact corpus, and the 400 instances of the
    node-count corpus under a 2,000-node budget."""
    runs = [*exact_corpus(), *((scenario, 2_000) for scenario in node_count_corpus())]
    compared = 0
    for scenario, budget in runs:
        if len(scenario.tasks) > MAX_TASKS or scenario.n_sectors > MAX_SECTORS:
            continue  # the size guards come before the search and are pinned elsewhere
        assert_no_worse(outcome_of(reference_min_passes, scenario, budget),
                        outcome_of(exact_min_passes, scenario, budget))
        compared += 1
    assert compared > 800
