import hashlib
import math

import pytest

from sectorsched import (
    CAP_SLACK,
    GenParams,
    InfeasibleScenarioError,
    InvalidInputError,
    LimitsExceededError,
    POLICY_PARTITION,
    SearchLimits,
    Xorshift64Star,
    angular_sector_distance,
    bin_packing_reduce,
    check_assignment,
    equalize,
    exact_min_passes,
    generate,
    simulate,
)
from conftest import scenario_from


def exists_schedule_within(scenario, last_pass):
    """Brute-force oracle: can every task fit into passes 0..last_pass?

    Plain recursion in task order over all eligible passes, with nothing but
    the capacity check; shares no ordering, bounding, or symmetry logic with
    the solver.
    """
    n = scenario.n_sectors
    if last_pass < 0:
        return not scenario.tasks
    residual = [scenario.resources[p % n] for p in range(last_pass + 1)]
    tasks = scenario.tasks

    def place(index):
        if index == len(tasks):
            return True
        task = tasks[index]
        for p in range(last_pass + 1):
            if angular_sector_distance(p % n, scenario.home[task.id], n) > scenario.fov_half_width:
                continue
            if task.duration > residual[p] + CAP_SLACK:
                continue
            residual[p] -= task.duration
            if place(index + 1):
                return True
            residual[p] += task.duration
        return False

    return place(0)


def enumerate_min_passes(scenario, max_rotations=5):
    """Smallest feasible last pass by scanning objectives upward, or None."""
    for objective in range(max_rotations * scenario.n_sectors):
        if exists_schedule_within(scenario, objective):
            return objective
    return None


def brute_force_bin_packing(sizes, capacities):
    """Independent feasibility enumerator: items into bins, no FOV, no passes."""
    remaining = list(capacities)

    def place(index):
        if index == len(sizes):
            return True
        for b in range(len(remaining)):
            if sizes[index] <= remaining[b] + CAP_SLACK:
                remaining[b] -= sizes[index]
                if place(index + 1):
                    return True
                remaining[b] += sizes[index]
        return False

    return place(0)


class TestExactMinPasses:
    def test_three_sector_example(self, tri_scenario):
        solution = exact_min_passes(tri_scenario)
        assert solution.objective == 2  # one full rotation: passes 0, 1, 2
        assert solution.optimal
        assert check_assignment(tri_scenario, solution.assignments) == []
        assert enumerate_min_passes(tri_scenario) == 2

    def test_empty_task_set(self):
        s = scenario_from(3, 1, 1.0, (2.0,) * 3, [])
        solution = exact_min_passes(s)
        assert solution.objective == -1
        assert solution.optimal
        assert solution.assignments == {}

    def test_task_exceeding_every_capacity(self):
        s = scenario_from(2, 0, 1.0, (4.0, 4.0), [(0, 5.0)])
        with pytest.raises(InfeasibleScenarioError, match="task 0"):
            exact_min_passes(s)

    def test_limits_enforced(self):
        thirteen_tasks = scenario_from(4, 1, 1.0, (9.0,) * 4, [(k % 4, 1.0) for k in range(13)])
        with pytest.raises(LimitsExceededError, match="^13 tasks exceed max_tasks=12$"):
            exact_min_passes(thirteen_tasks)
        nine_sectors = scenario_from(9, 1, 1.0, (9.0,) * 9, [(0, 1.0)])
        with pytest.raises(LimitsExceededError, match="^9 sectors exceed max_sectors=8$"):
            exact_min_passes(nine_sectors)

    @pytest.mark.parametrize("budget", [math.nan, 1.5, True, 0])
    def test_node_budget_is_a_positive_int(self, budget):
        with pytest.raises(InvalidInputError, match="node_budget"):
            SearchLimits(node_budget=budget)

    def test_needs_second_rotation(self):
        # Two tasks of 2 on a single sector of capacity 2: passes 0 and 1.
        s = scenario_from(1, 0, 1.0, (2.0,), [(0, 2.0), (0, 2.0)])
        solution = exact_min_passes(s)
        assert solution.objective == 1
        assert solution.assignments[0][0] == 0 and solution.assignments[1][0] == 0
        assert {rot for _, rot in solution.assignments.values()} == {0, 1}

    def test_matches_enumeration_on_random_instances(self):
        rng = Xorshift64Star(314)
        for _ in range(40):
            n = 1 + rng.randint(0, 3)
            tasks = [(rng.randint(0, n - 1), 0.5 + rng.uniform() * 3.0)
                     for _ in range(1 + rng.randint(0, 5))]
            s = scenario_from(n, rng.randint(0, n // 2), 1.0,
                              [3.5 + rng.uniform() * 5.0 for _ in range(n)], tasks)
            solution = exact_min_passes(s)
            assert solution.optimal
            # feasible at the claimed optimum, infeasible strictly below it
            assert check_assignment(s, solution.assignments) == []
            assert exists_schedule_within(s, solution.objective)
            assert not exists_schedule_within(s, solution.objective - 1)

    def test_never_beaten_by_greedy(self):
        rng = Xorshift64Star(2718)
        for _ in range(25):
            n = 2 + rng.randint(0, 3)
            tasks = [(rng.randint(0, n - 1), 0.5 + rng.uniform() * 3.0)
                     for _ in range(2 + rng.randint(0, 6))]
            s = scenario_from(n, rng.randint(0, n // 2), 1.0,
                              [4.0 + rng.uniform() * 6.0 for _ in range(n)], tasks)
            exact = exact_min_passes(s)
            trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=1)
            assert exact.objective <= trace.completion_pass

    def test_assignment_passes_the_validator_and_reaches_the_objective(self):
        rng = Xorshift64Star(1618)
        for _ in range(25):
            n = 1 + rng.randint(0, 4)
            tasks = [(rng.randint(0, n - 1), 0.5 + rng.uniform() * 3.0)
                     for _ in range(1 + rng.randint(0, 6))]
            s = scenario_from(n, rng.randint(0, n // 2), 1.0,
                              [4.0 + rng.uniform() * 6.0 for _ in range(n)], tasks)
            solution = exact_min_passes(s)
            assert check_assignment(s, solution.assignments) == []
            assert solution.objective == max(
                r * n + sector for sector, r in solution.assignments.values())


class TestCheckAssignment:
    def test_detects_overfull_pass(self, tri_scenario):
        bad = {0: (0, 0), 1: (0, 0), 2: (1, 0)}  # 4 s into sector 0's 2 s
        assert any("uses" in p for p in check_assignment(tri_scenario, bad))

    def test_detects_fov_breach(self):
        s = scenario_from(8, 1, 1.0, (9.0,) * 8, [(0, 1.0)])
        assert any("from home" in p for p in check_assignment(s, {0: (4, 0)}))

    def test_detects_missing_task(self, tri_scenario):
        assert any("never assigned" in p
                   for p in check_assignment(tri_scenario, {0: (0, 0)}))

    def test_detects_unknown_task(self, tri_scenario):
        good = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        assert check_assignment(tri_scenario, good) == []
        assert check_assignment(tri_scenario, {**good, 7: (0, 1)}) == [
            "task 7 not part of the scenario"]

    @pytest.mark.parametrize("entry", [(0,), (0, 0, 0), ("a", 0), (0, "a"), 5, (True, 0),
                                       (0, False), (0.0, 0), None])
    def test_reports_an_entry_that_is_no_pair_of_ints(self, tri_scenario, entry):
        bad = {0: entry, 1: (1, 0), 2: (2, 0)}
        assert check_assignment(tri_scenario, bad) == [
            f"task 0: pass {entry!r} is not a (sector, rotation) pair of ints"]

    @pytest.mark.parametrize("sector, rotation", [(3, 0), (-1, 0), (0, -1)])
    def test_detects_out_of_range_pass(self, tri_scenario, sector, rotation):
        bad = {0: (sector, rotation), 1: (1, 0), 2: (2, 0)}
        assert check_assignment(tri_scenario, bad) == [
            f"task 0: pass (sector={sector}, rotation={rotation}) out of range"]


class TestBinPackingReduce:
    def test_classic_feasible_pair(self):
        s = bin_packing_reduce([4, 3, 2, 1], [5, 5])
        assert s.n_sectors == 2 and s.fov_half_width == 1
        solution = exact_min_passes(s)
        assert solution.objective < s.n_sectors  # fits in one rotation
        assert brute_force_bin_packing([4, 3, 2, 1], [5, 5])

    def test_classic_infeasible_triple(self):
        s = bin_packing_reduce([3, 3, 3], [5, 5])
        solution = exact_min_passes(s)
        assert solution.objective >= s.n_sectors  # needs a second rotation
        assert not brute_force_bin_packing([3, 3, 3], [5, 5])

    def test_single_item_single_bin(self):
        s = bin_packing_reduce([1], [1])
        assert exact_min_passes(s).objective == 0

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            bin_packing_reduce([], [1])
        with pytest.raises(InvalidInputError):
            bin_packing_reduce([1, -2], [3])
        with pytest.raises(InvalidInputError):
            bin_packing_reduce([1], [0])

    def test_reads_each_argument_once(self):
        s = bin_packing_reduce(iter([1.0, 2.0]), iter([2.0, 3.0]))
        assert s == bin_packing_reduce([1.0, 2.0], [2.0, 3.0])
        assert [t.duration for t in s.tasks] == [1.0, 2.0]

    def test_every_sector_reachable(self):
        for bins in (1, 2, 3, 6, 7):
            s = bin_packing_reduce([1.0], [10.0] * bins)
            assert all(
                angular_sector_distance(j, s.home[0], bins) <= s.fov_half_width
                for j in range(bins))

    def test_reduction_agrees_with_enumerator(self):
        rng = Xorshift64Star(777)
        for _ in range(25):
            bins = 2 + rng.randint(0, 2)
            caps = [4.0 + rng.uniform() * 8.0 for _ in range(bins)]
            sizes = [0.5 + rng.uniform() * (max(caps) - 0.5)
                     for _ in range(2 + rng.randint(0, 4))]
            s = bin_packing_reduce(sizes, caps)
            one_rotation = exact_min_passes(s).objective < bins
            assert one_rotation == brute_force_bin_packing(sizes, caps)


def test_total_demand_preserved_by_reduction():
    sizes = [4.0, 3.0, 2.0, 1.0]
    s = bin_packing_reduce(sizes, [5.0, 5.0])
    assert math.fsum(t.duration for t in s.tasks) == pytest.approx(10.0)


# SHA-256 of the outcomes below, recorded from the solver before its search
# limits became module constants; any change to a plan, an objective, the
# optimality flag or an error message shows here.
EXACT_CORPUS_SHA256 = "203cfe57b179b6bac0209f897aaac345168268cab23de1db0bde6c011fad658a"


def test_exact_corpus_matches_recorded_digest():
    """600 seeded instances under budgets of 1 to 100,000 nodes: random bin
    packings, one- or two-sector instances that need up to and past five
    rotations, and generated instances inside and past the size limits.  Every outcome kind occurs: proven, budget-out with a plan,
    budget-out with none, too many tasks or sectors, infeasible."""
    rng = Xorshift64Star(2024)
    digest = hashlib.sha256()
    for k in range(600):
        if k % 3 == 0:
            caps = [3.0 + rng.uniform() * 5.0 for _ in range(rng.randint(2, 6))]
            sizes = [0.5 + rng.uniform() * 3.5 for _ in range(rng.randint(1, 12))]
            scenario = bin_packing_reduce(sizes, caps)
        elif k % 5 == 1:
            scenario = generate(GenParams(
                n_sectors=rng.randint(1, 2), fov_half_width=0, tasks_per_sector=(3, 6),
                duration=(3.0, 5.0), resources=(4.0, 6.0), seed=rng.randint(0, 10**6)))
        else:
            scenario = generate(GenParams(
                n_sectors=rng.randint(1, 9), fov_half_width=rng.randint(0, 3),
                tasks_per_sector=(0, 3), duration=(1.0, 5.0), resources=(3.0, 7.0),
                seed=rng.randint(0, 10**6)))
        budget = (1, 50, 5_000, 100_000)[rng.randint(0, 3)]
        try:
            s = exact_min_passes(scenario, SearchLimits(node_budget=budget))
            outcome = (sorted(s.assignments.items()), s.objective, s.optimal)
        except (LimitsExceededError, InfeasibleScenarioError) as exc:
            outcome = (type(exc).__name__, str(exc))
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == EXACT_CORPUS_SHA256


# SHA-256 of the least node budget that proves each instance below optimal,
# recorded from the solver before each task's candidate passes were fixed
# once per search; any change to the nodes a proof visits shows here.
NODE_COUNT_SHA256 = "9ebdec97b511dd78d4dd5e165f19e4ab559eb83ef264d8858c035bee470425af"


def least_proving_budget(scenario, cap=20_000):
    """Smallest node budget whose search returns ``optimal=True``, by bisection.

    A proof visits a fixed number of nodes and a budget only cuts the search
    short, so the outcome is monotone in the budget.  Returns the error's
    name when the search at ``cap`` raises (past a size limit, infeasible,
    or out of budget with no plan), and None when it returns an unproven
    plan."""
    def proven(budget):
        try:
            return exact_min_passes(scenario, SearchLimits(node_budget=budget)).optimal
        except LimitsExceededError:
            return False

    try:
        exact_min_passes(scenario, SearchLimits(node_budget=cap))
    except (LimitsExceededError, InfeasibleScenarioError) as exc:
        return type(exc).__name__
    if not proven(cap):
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if proven(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_node_counts_match_recorded_digest():
    """400 seeded instances, drawn as the exact corpus is, plus four-sector
    instances of up to 12 tasks with durations close to the resources, which
    need proofs of up to about 12,000 nodes."""
    rng = Xorshift64Star(2025)
    budgets = []
    for k in range(400):
        if k % 4 == 3:
            scenario = generate(GenParams(
                n_sectors=4, fov_half_width=rng.randint(1, 2), tasks_per_sector=(1, 3),
                duration=(2.0, 5.0), resources=(4.0, 7.0), seed=rng.randint(0, 10**6)))
        elif k % 3 == 0:
            caps = [3.0 + rng.uniform() * 5.0 for _ in range(rng.randint(2, 6))]
            sizes = [0.5 + rng.uniform() * 3.5 for _ in range(rng.randint(1, 12))]
            scenario = bin_packing_reduce(sizes, caps)
        elif k % 5 == 1:
            scenario = generate(GenParams(
                n_sectors=rng.randint(1, 2), fov_half_width=0, tasks_per_sector=(3, 6),
                duration=(3.0, 5.0), resources=(4.0, 6.0), seed=rng.randint(0, 10**6)))
        else:
            scenario = generate(GenParams(
                n_sectors=rng.randint(1, 9), fov_half_width=rng.randint(0, 3),
                tasks_per_sector=(0, 3), duration=(1.0, 5.0), resources=(3.0, 7.0),
                seed=rng.randint(0, 10**6)))
        budgets.append(least_proving_budget(scenario))
    assert hashlib.sha256(repr(budgets).encode()).hexdigest() == NODE_COUNT_SHA256
