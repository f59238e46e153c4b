import hashlib
import math
from fractions import Fraction

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
    bin_packing_reduce,
    check_assignment,
    equalize,
    exact_min_passes,
    generate,
    simulate,
)
from conftest import cyclic_distance, scenario_from


def exists_schedule_within(scenario, last_pass):
    """Brute-force oracle: can every task fit into passes 0..last_pass?

    Plain recursion in task order over all eligible passes, with nothing but
    the capacity check, in exact fractions; shares no ordering, bounding,
    symmetry or arithmetic with the solver.
    """
    n = scenario.n_sectors
    if last_pass < 0:
        return not scenario.tasks
    slack = Fraction(CAP_SLACK)
    residual = [Fraction(scenario.resources[p % n]) for p in range(last_pass + 1)]
    tasks = scenario.tasks

    def place(index):
        if index == len(tasks):
            return True
        task = tasks[index]
        duration = Fraction(task.duration)
        for p in range(last_pass + 1):
            if cyclic_distance(p % n, scenario.home[task.id], n) > scenario.fov_half_width:
                continue
            if duration > residual[p] + slack:
                continue
            residual[p] -= duration
            if place(index + 1):
                return True
            residual[p] += duration
        return False

    return place(0)


def enumerate_min_passes(scenario, max_rotations=5):
    """Smallest feasible last pass by scanning objectives upward, or None."""
    for objective in range(max_rotations * scenario.n_sectors):
        if exists_schedule_within(scenario, objective):
            return objective
    return None


def brute_force_bin_packing(sizes, capacities):
    """Independent feasibility enumerator: items into bins, no FOV, no
    passes, in exact fractions."""
    slack = Fraction(CAP_SLACK)
    sizes = [Fraction(size) for size in sizes]
    remaining = [Fraction(cap) for cap in capacities]

    def place(index):
        if index == len(sizes):
            return True
        for b in range(len(remaining)):
            if sizes[index] <= remaining[b] + slack:
                remaining[b] -= sizes[index]
                if place(index + 1):
                    return True
                remaining[b] += sizes[index]
        return False

    return place(0)


def exact_overfills(scenario, assignments):
    """Passes whose exact load exceeds their resources plus CAP_SLACK."""
    duration = {t.id: Fraction(t.duration) for t in scenario.tasks}
    load = {}
    for tid, (sector, rotation) in assignments.items():
        load[sector, rotation] = load.get((sector, rotation), 0) + duration[tid]
    return sorted(key for key, used in load.items()
                  if used > Fraction(scenario.resources[key[0]]) + Fraction(CAP_SLACK))


def slack_edge_packings(count=100, seed=2028):
    """Packings of two or three bins of 3 to 7 s, each cut at millisecond
    points into up to three items, with CAP_SLACK added to one item in about
    half the bins: such a bin's exact load lies within a few ulps of its
    capacity plus CAP_SLACK, above or below."""
    rng = Xorshift64Star(seed)
    for _ in range(count):
        caps = [rng.randint(3000, 7000) / 1000 for _ in range(rng.randint(2, 3))]
        sizes = []
        for cap in caps:
            cuts = sorted(rng.randint(1, round(cap * 1000) - 1) / 1000
                          for _ in range(rng.randint(0, 2)))
            edges = [0.0, *cuts, cap]
            pieces = [b - a for a, b in zip(edges, edges[1:])]
            if rng.randint(0, 1):
                pieces[rng.randint(0, len(pieces) - 1)] += CAP_SLACK
            sizes += pieces
        keys = [rng.uniform() for _ in sizes]
        yield [size for _, size in sorted(zip(keys, sizes))], caps


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

    def test_a_home_of_negligible_demand_starts_at_its_first_pass(self):
        # Task 2's 1e-10 s is within CAP_SLACK of no demand, but it still
        # needs pass 3, its home's first: deepening starts there, and the
        # first-fit plan proves itself without a node of search.
        s = scenario_from(4, 0, 1.0, (5.0,) * 4, [(0, 2.0), (0, 2.0), (3, 1e-10)])
        solution = exact_min_passes(s, SearchLimits(node_budget=1))
        assert (solution.objective, solution.optimal) == (3, True)

    def test_every_pass_may_overfill_by_the_slack(self):
        # Four of the items overfill their bins by 9e-10 each, within the
        # CAP_SLACK the fit test allows per pass but past one CAP_SLACK in
        # total, so the deepening start must allow it per pass.
        s = bin_packing_reduce(
            [2.0500000009, 2.183, 2.1900000000000004, 6.2740000009, 4.3520000009, 3.5290000009],
            [5.712, 4.352, 4.24, 6.274])
        assert exists_schedule_within(s, 3)
        solution = exact_min_passes(s)
        assert (solution.objective, solution.optimal) == (3, True)
        assert check_assignment(s, solution.assignments) == []

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


class TestCountBound:
    """The search cuts a branch whose passes cannot hold as many tasks as
    are left, counting from the shortest durations.  The count must never
    cut a schedule that the per-pass fit test accepts."""

    def test_refutes_at_the_root(self):
        # Six 3 s tasks, one per 5 s pass, and five passes in the horizon:
        # no horizon holds six tasks by count, so no node is searched.
        s = scenario_from(1, 0, 5.0, (5.0,), [(0, 3.0)] * 6)
        with pytest.raises(InfeasibleScenarioError, match="within 5 rotations"):
            exact_min_passes(s, SearchLimits(node_budget=1))

    def test_durations_that_fill_a_capacity_exactly(self):
        s = bin_packing_reduce([0.1, 0.2, 0.7], [1.0])
        solution = exact_min_passes(s, SearchLimits(node_budget=4))
        assert (solution.objective, solution.optimal) == (0, True)
        # Summed shortest first, these exceed 2.9 by 4.4e-16 in floats.
        s = bin_packing_reduce([0.8, 0.8, 0.7, 0.4, 0.2], [2.9])
        solution = exact_min_passes(s, SearchLimits(node_budget=6))
        assert (solution.objective, solution.optimal) == (0, True)

    def test_rounding_past_the_capacity_slack(self):
        # Cuts of two bins of about 5e7 and 4e7 that sum to each bin
        # exactly, so one rotation holds them.  An ulp here is 7.5e-9, so
        # float prefix sums and residual chains would drift past CAP_SLACK
        # and a count on them could refute the one-rotation horizon.
        caps = [54212742.58951991, 42365983.411813736]
        sizes = [24751660.60036738, 14960647.528064065, 15401793.799794909,
                 17614322.811446358, 12295273.272200178, 11555027.989460759]
        solution = exact_min_passes(bin_packing_reduce(sizes, caps))
        assert (solution.objective, solution.optimal) == (1, True)

    @pytest.mark.parametrize("scale", [1e-10, 1e6])
    def test_bin_packings_at_any_scale_agree_with_the_enumerator(self, scale):
        rng = Xorshift64Star(4242)
        for _ in range(20):
            bins = 1 + rng.randint(0, 3)
            caps = [(3.0 + rng.uniform() * 5.0) * scale for _ in range(bins)]
            sizes = [(0.5 + rng.uniform() * 3.5) * scale for _ in range(1 + rng.randint(0, 7))]
            s = bin_packing_reduce(sizes, caps)
            try:
                solution = exact_min_passes(s)
            except InfeasibleScenarioError:
                assert enumerate_min_passes(s) is None
                continue
            assert solution.optimal
            assert solution.objective == enumerate_min_passes(s)
            assert (solution.objective < bins) == brute_force_bin_packing(sizes, caps)

    @pytest.mark.parametrize("scale", [1e-10, 1e6])
    def test_planted_packings_at_scale_fit_one_rotation(self, scale):
        # Each bin is cut into pieces that sum to it up to rounding.
        caps = [0.7 * scale, 1.0 * scale, 0.3 * scale]
        sizes = [0.1 * scale, 0.6 * scale, 0.2 * scale, 0.7 * scale, 0.1 * scale, 0.3 * scale]
        solution = exact_min_passes(bin_packing_reduce(sizes, caps))
        assert solution.optimal and solution.objective < 3

    @pytest.mark.parametrize("duration, per_pass", [(0.1, 10), (1.0 / 3, 3), (2.0, 2), (7e5, 2)])
    def test_many_equal_durations(self, duration, per_pass):
        # Twelve equal tasks in 2 sectors, each pass holding per_pass of them.
        cap = per_pass * duration
        s = scenario_from(2, 1, 1.0, (cap, cap), [(k % 2, duration) for k in range(12)])
        solution = exact_min_passes(s)
        assert solution.optimal
        assert solution.objective == -(-12 // per_pass) - 1
        assert check_assignment(s, solution.assignments) == []


class TestLostRoom:
    """The search cuts a branch once the room on passes that cannot take
    even the shortest task left exceeds the horizon's capacity less its
    demand.  The cut must never remove a schedule the fit test accepts."""

    def test_refutes_at_the_root(self):
        # Passes 4, 1, 7, 4, 1, 7 s hold 15.5 s of tasks no shorter than
        # 4 s, so each 1 s pass is lost from the start: passes 0..3 have
        # 0.5 s to spare and lose 1 s, passes 0..4 have 1.5 s and lose 2 s.
        # Both horizons fall without a node and the first-fit plan is proven.
        s = bin_packing_reduce([6.0, 4.0, 5.5], [4.0, 1.0, 7.0])
        solution = exact_min_passes(s, SearchLimits(node_budget=1))
        assert (solution.objective, solution.optimal) == (5, True)
        assert not exists_schedule_within(s, 4)

    def test_refutes_at_the_first_node(self):
        # The 4 s task leaves 1 s in either 5 s pass, below the shortest
        # 2 s task, while passes 0..2 have 12 - 11.5 = 0.5 s to spare.
        s = bin_packing_reduce([3.0, 4.0, 2.0, 2.5], [5.0, 2.0, 5.0])
        solution = exact_min_passes(s, SearchLimits(node_budget=1))
        assert (solution.objective, solution.optimal) == (3, True)
        assert not exists_schedule_within(s, 2)

    def test_rounding_past_the_capacity_slack(self):
        # Cuts of three bins of 3e7 to 4e7 that sum to each bin exactly,
        # and a 66,188 bin no cut fits.  An ulp of the totals is 1.5e-8, so
        # float sums and residual chains would drift past CAP_SLACK on every
        # pass and a surplus taken from them could refute passes 0..2.
        caps = [42586218.163618594, 33577126.89189965, 37359122.539920524, 66187.79203413252]
        sizes = [38093134.482439935, 4493083.681178659, 13051712.15368312, 13077317.046838002,
                 7448097.69137853, 3974264.0496519357, 29954990.81726128, 3429867.6730073094]
        s = bin_packing_reduce(sizes, caps)
        solution = exact_min_passes(s)
        assert (solution.objective, solution.optimal) == (2, True)
        assert exists_schedule_within(s, 2)


class TestSlackEdge:
    """Loads within a few ulps of a capacity plus CAP_SLACK: the search
    decides them exactly, as the oracles do in fractions."""

    def test_no_plan_overfills_past_the_slack(self):
        # Passes (1, 0) and (2, 0) of the one-rotation plan that float
        # residual chains admit exceed their resources plus CAP_SLACK by
        # 8.3e-17, so exactly no one-rotation plan exists.
        s = bin_packing_reduce([0.942000001, 4.221, 3.119, 2.1220000009999995, 2.844000001, 2.44],
                               [5.163, 5.284, 5.241])
        assert exact_overfills(s, {1: (0, 0), 2: (2, 0), 4: (1, 0), 5: (1, 0), 3: (2, 0),
                                   0: (0, 0)}) == [(1, 0), (2, 0)]
        solution = exact_min_passes(s)
        assert (solution.objective, solution.optimal) == (3, True)
        assert exact_overfills(s, solution.assignments) == []
        assert not exists_schedule_within(s, 2)

    def test_the_order_of_placement_does_not_matter(self):
        # A float residual chain in id order let pass 0 take the 0.343000001 s
        # task after the 2.24 s one, 1.00000008e-9 s past its resources;
        # summed exactly, no plan within passes 0..3 exists in any order.
        s = bin_packing_reduce([4.32, 0.34300000100000005, 2.2399999999999993,
                                3.2120000009000003, 0.235, 3.682, 1.972, 2.215,
                                1.3190000000000008], [6.903, 3.212, 3.917, 5.506, 3.338])
        solution = exact_min_passes(s)
        assert (solution.objective, solution.optimal) == (4, True)
        assert not exists_schedule_within(s, 3)

    def test_packings_agree_with_the_oracles(self):
        proven = 0
        for sizes, caps in slack_edge_packings():
            s = bin_packing_reduce(sizes, caps)
            try:
                solution = exact_min_passes(s)
            except InfeasibleScenarioError:
                slack = Fraction(CAP_SLACK)
                assert any(all(Fraction(size) > Fraction(cap) + slack for cap in caps)
                           for size in sizes)
                continue
            assert solution.optimal
            assert exact_overfills(s, solution.assignments) == []
            assert exists_schedule_within(s, solution.objective)
            assert not exists_schedule_within(s, solution.objective - 1)
            assert (solution.objective < len(caps)) == brute_force_bin_packing(sizes, caps)
            proven += 1
        assert proven > 80


class TestCheckAssignment:
    def test_detects_overfull_pass(self, tri_scenario):
        bad = {0: (0, 0), 1: (0, 0), 2: (1, 0)}  # 4 s into sector 0's 2 s
        assert any("uses" in p for p in check_assignment(tri_scenario, bad))

    def test_detects_fov_breach(self):
        s = scenario_from(8, 1, 1.0, (9.0,) * 8, [(0, 1.0)])
        assert any("from home" in p for p in check_assignment(s, {0: (4, 0)}))

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_fov_check_is_the_cyclic_distance(self, n):
        # As check_partition's: a problem exactly when the cyclic distance
        # exceeds the half-width, naming that distance.
        for w in range(n // 2 + 1):
            for home in range(n):
                s = scenario_from(n, w, 1.0, (1.0,) * n, [(home, 1.0)])
                for sector in range(n):
                    dist = cyclic_distance(sector, home, n)
                    expected = [] if dist <= w else [
                        f"task 0 executed {dist} sectors from home (fov half-width {w})"]
                    assert check_assignment(s, {0: (sector, 1)}) == expected

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

    def test_verdict_does_not_depend_on_the_mapping_order(self):
        # Summed in floats in this key order, pass (1, 0) comes to
        # 6.708000001000001, past 6.708 plus CAP_SLACK, but its exact load fits.
        s = bin_packing_reduce([1.4450000010000001, 3.043, 2.473, 2.574, 0.19400000099999984,
                                0.19100000000000028, 3.749, 0.374, 1.8600000009989999,
                                0.3879999999999999, 0.7589999999999999],
                               [6.961, 6.708, 3.381])
        solution = exact_min_passes(s)
        assert exact_overfills(s, solution.assignments) == []
        order = [7, 2, 3, 6, 5, 8, 1, 10, 4, 0, 9]
        assert check_assignment(s, {tid: solution.assignments[tid] for tid in order}) == []

    def test_reports_an_exact_overfill_below_float_resolution(self):
        s = bin_packing_reduce([0.942000001, 4.221, 3.119, 2.1220000009999995, 2.844000001, 2.44],
                               [5.163, 5.284, 5.241])
        plan = {1: (0, 0), 2: (2, 0), 4: (1, 0), 5: (1, 0), 3: (2, 0), 0: (0, 0)}
        assert check_assignment(s, plan) == [
            "pass (sector=1, rotation=0) uses 5.284000001, resources 5.284",
            "pass (sector=2, rotation=0) uses 5.241000001, resources 5.241"]


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
                cyclic_distance(j, s.home[0], bins) <= s.fov_half_width
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


# SHA-256 of the outcomes below, recorded from the solver once it also cut
# branches whose lost room exceeds the horizon's surplus, after the test in
# test_exact_equivalence showed every outcome the unpruned search proves
# unchanged; any change to a plan, an objective, the optimality flag or an
# error message shows here.
EXACT_CORPUS_SHA256 = "644d16de7158123ec6db516115a09b2853a1673f9684d6055c90183b460067fd"


def exact_corpus():
    """600 seeded (instance, node budget) pairs under budgets of 1 to 100,000
    nodes: random bin packings, one- or two-sector instances that need up to
    and past five rotations, and generated instances inside and past the size
    limits.  Every outcome kind occurs: proven, budget-out with a plan,
    budget-out with none, too many tasks or sectors, infeasible."""
    rng = Xorshift64Star(2024)
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
        yield scenario, (1, 50, 5_000, 100_000)[rng.randint(0, 3)]


def outcome_of(solve, scenario, budget):
    """A search's plan, objective and flag, or its error's type and message."""
    try:
        s = solve(scenario, SearchLimits(node_budget=budget))
        return sorted(s.assignments.items()), s.objective, s.optimal
    except (LimitsExceededError, InfeasibleScenarioError) as exc:
        return type(exc).__name__, str(exc)


def test_exact_corpus_matches_recorded_digest():
    digest = hashlib.sha256()
    for scenario, budget in exact_corpus():
        digest.update(repr(outcome_of(exact_min_passes, scenario, budget)).encode())
    assert digest.hexdigest() == EXACT_CORPUS_SHA256


# SHA-256 of the least node budget that proves each instance below optimal,
# recorded from the solver once it also cut branches whose lost room exceeds
# the horizon's surplus; any change to the nodes a proof visits shows here.
NODE_COUNT_SHA256 = "b6eecb458795bee3209b2049b1347368ff97806e83d2fde35ead81625e891824"


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


def node_count_corpus():
    """400 seeded instances, drawn as the exact corpus is, plus four-sector
    instances of up to 12 tasks with durations close to the resources, which
    need proofs of up to about 12,000 nodes."""
    rng = Xorshift64Star(2025)
    for k in range(400):
        if k % 4 == 3:
            yield generate(GenParams(
                n_sectors=4, fov_half_width=rng.randint(1, 2), tasks_per_sector=(1, 3),
                duration=(2.0, 5.0), resources=(4.0, 7.0), seed=rng.randint(0, 10**6)))
        elif k % 3 == 0:
            caps = [3.0 + rng.uniform() * 5.0 for _ in range(rng.randint(2, 6))]
            sizes = [0.5 + rng.uniform() * 3.5 for _ in range(rng.randint(1, 12))]
            yield bin_packing_reduce(sizes, caps)
        elif k % 5 == 1:
            yield generate(GenParams(
                n_sectors=rng.randint(1, 2), fov_half_width=0, tasks_per_sector=(3, 6),
                duration=(3.0, 5.0), resources=(4.0, 6.0), seed=rng.randint(0, 10**6)))
        else:
            yield generate(GenParams(
                n_sectors=rng.randint(1, 9), fov_half_width=rng.randint(0, 3),
                tasks_per_sector=(0, 3), duration=(1.0, 5.0), resources=(3.0, 7.0),
                seed=rng.randint(0, 10**6)))


def test_node_counts_match_recorded_digest():
    budgets = [least_proving_budget(scenario) for scenario in node_count_corpus()]
    assert hashlib.sha256(repr(budgets).encode()).hexdigest() == NODE_COUNT_SHA256
