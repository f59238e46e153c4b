import itertools
import json
import math
from pathlib import Path

import pytest

from sectorsched import (
    CAP_SLACK,
    GenParams,
    InfeasibleScenarioError,
    PROVENANCE_FOV,
    PROVENANCE_LEFTOVER,
    PROVENANCE_OWN,
    ScenarioValidationError,
    SectorSchedError,
    SurveillanceTask,
    Xorshift64Star,
    broadside_baseline,
    build_partition,
    check_partition,
    equalize,
    generate,
    load_report,
    maximal_subset,
    sector_targets,
)
from sectorsched.io import read_scenario
from conftest import cyclic_distance, dedup_active_sectors, scenario_from

FIXTURES = Path(__file__).parent / "fixtures"


def tasks_of(durations, n_sectors=8, home=0):
    width = 2 * math.pi / n_sectors
    return tuple(
        SurveillanceTask(i, (home + (i + 1) / (len(durations) + 1)) * width, 0.0, d)
        for i, d in enumerate(durations)
    )


def exhaustive_is_maximal(durations, chosen_ids, budget, used):
    """Oracle: chosen set fits and no feasible strict superset exists.

    Selecting nothing is always allowed, so the empty set is feasible even
    when ``used`` alone exceeds the budget.
    """
    chosen = set(chosen_ids)
    if chosen and used + math.fsum(durations[i] for i in chosen) > budget + CAP_SLACK:
        return False
    ids = range(len(durations))
    for k in range(len(durations) + 1):
        for combo in itertools.combinations(ids, k):
            combo = set(combo)
            if combo > chosen and used + math.fsum(
                    durations[i] for i in combo) <= budget + CAP_SLACK:
                return False
    return True


def reference_maximal_subset(candidates, budget, already_used=0.0):
    """The sort-based ``maximal_subset``, kept verbatim as the oracle for the
    one first-fit routine both phases of the equalizer run."""
    chosen: list[int] = []
    used = already_used
    for task in sorted(candidates, key=lambda t: (-t.duration, t.id)):
        if used + task.duration <= budget + CAP_SLACK:
            chosen.append(task.id)
            used += task.duration
    return chosen


def reference_equalize(scenario):
    """The sort-based equalizer, kept as the oracle for the sliding window.

    Every sector sorts its whole field-of-view candidate set by
    (-duration, distance to the sector, id) and fills first-fit; leftovers go
    longest first to the field-of-view sector with the least relative load
    after taking them, ties by (distance, sector index).
    """
    n = scenario.n_sectors
    targets = sector_targets(scenario).targets
    by_id = scenario.task_by_id()
    home = scenario.home
    unassigned = set(by_id)
    sector_of_task, provenance = {}, {}
    loads = [0.0] * n

    def assign(tid, sector, tag):
        unassigned.discard(tid)
        sector_of_task[tid] = sector
        provenance[tid] = tag
        loads[sector] += by_id[tid].duration

    def first_fit(candidates, sector, budget, used):
        ordered = sorted(candidates, key=lambda t: (
            -t.duration, cyclic_distance(sector, home[t.id], n), t.id))
        chosen = []
        for task in ordered:
            if used + task.duration <= budget + CAP_SLACK:
                chosen.append(task.id)
                used += task.duration
        return chosen

    for i in range(n):
        budget = float(targets[i])
        own = [t for t in scenario.tasks if home[t.id] == i and t.id in unassigned]
        for tid in first_fit(own, i, budget, 0.0):
            assign(tid, i, PROVENANCE_OWN)
        fov = set(dedup_active_sectors(i, scenario.fov_half_width, n))
        reachable = [t for t in scenario.tasks
                     if home[t.id] in fov and t.id in unassigned]
        for tid in first_fit(reachable, i, budget, loads[i]):
            assign(tid, i, PROVENANCE_FOV)

    for task in sorted((by_id[tid] for tid in unassigned),
                       key=lambda t: (-t.duration, t.id)):
        fov = dedup_active_sectors(home[task.id], scenario.fov_half_width, n)
        eligible = [j for j in fov if targets[j] > 0.0]
        if not eligible:
            raise InfeasibleScenarioError(
                f"task {task.id}: every sector in its field of view has zero target")
        best = min(eligible, key=lambda j: (
            (task.duration + loads[j]) / targets[j],
            cyclic_distance(j, home[task.id], n), j))
        assign(task.id, best, PROVENANCE_LEFTOVER)
    return build_partition(n, sector_of_task, provenance)


def outcome(fn, scenario):
    try:
        part = fn(scenario)
    except SectorSchedError as exc:
        return type(exc), str(exc)
    return part.assignments, part.provenance


def assert_matches_reference(scenario):
    expected = outcome(reference_equalize, scenario)
    assert outcome(equalize, scenario) == expected
    return expected


class TestMaximalSubset:
    def test_first_fit_decreasing_example(self):
        candidates = tasks_of([4.0, 3.0, 2.0, 1.0])
        picked = maximal_subset(candidates, 5.0)
        assert picked == [0, 3]  # durations 4 and 1
        assert exhaustive_is_maximal([4.0, 3.0, 2.0, 1.0], picked, 5.0, 0.0)

    def test_zero_budget_empty_is_maximal(self):
        candidates = tasks_of([1.0, 2.0])
        assert maximal_subset(candidates, 0.0) == []

    def test_everything_fits(self):
        candidates = tasks_of([1.0, 1.0])
        assert maximal_subset(candidates, 10.0) == [0, 1]

    def test_already_used_counts(self):
        candidates = tasks_of([4.0, 3.0, 2.0, 1.0])
        picked = maximal_subset(candidates, 5.0, already_used=2.0)
        assert picked == [1]  # 4 overflows, 3 lands exactly on the cap
        assert exhaustive_is_maximal([4.0, 3.0, 2.0, 1.0], picked, 5.0, 2.0)

    def test_random_instances_against_oracle(self):
        rng = Xorshift64Star(2024)
        for _ in range(60):
            count = 1 + rng.randint(0, 9)
            durations = [0.1 + rng.uniform() * 4.0 for _ in range(count)]
            budget = rng.uniform() * 8.0
            used = rng.uniform() * 2.0
            picked = maximal_subset(tasks_of(durations, n_sectors=4), budget,
                                    already_used=used)
            assert exhaustive_is_maximal(durations, picked, budget, used)


class TestEqualize:
    def test_three_sector_example(self, tri_scenario):
        part = equalize(tri_scenario)
        # One sector-0 task stays home, the sector-1 task stays home, and the
        # second sector-0 task lands in sector 2 through the FOV phase.
        assert part.assignments == ((0,), (2,), (1,))
        assert part.provenance == {0: PROVENANCE_OWN, 2: PROVENANCE_OWN,
                                   1: PROVENANCE_FOV}
        assert load_report(tri_scenario, part).max_relative_load == pytest.approx(1.0)

    def test_empty_task_set(self):
        s = scenario_from(4, 1, 1.0, (2.0,) * 4, [])
        assert equalize(s).assignments == ((), (), (), ())

    def test_single_sector_takes_everything(self):
        s = scenario_from(1, 0, 1.0, (5.0,), [(0, 3.0), (0, 1.0), (0, 2.5)])
        part = equalize(s)
        assert part.assignments == ((0, 1, 2),)
        assert all(tag == PROVENANCE_OWN for tag in part.provenance.values())

    def test_phase_two_is_superset_of_phase_one(self):
        # Own-sector picks survive into the final bucket untouched.
        rng = Xorshift64Star(41)
        for _ in range(30):
            n = 3 + rng.randint(0, 7)
            homes = [(rng.randint(0, n - 1), 0.2 + rng.uniform() * 2.5)
                     for _ in range(rng.randint(1, 14))]
            s = scenario_from(n, rng.randint(0, n // 2), 1.0,
                              [2.0 + rng.uniform() * 8.0 for _ in range(n)], homes)
            part = equalize(s)
            sector_of = part.sector_index()
            for task in s.tasks:
                sector = sector_of[task.id]
                if part.provenance[task.id] == PROVENANCE_OWN:
                    assert sector == s.home[task.id]

    def test_cap_respected_before_leftovers(self):
        rng = Xorshift64Star(42)
        for _ in range(30):
            n = 2 + rng.randint(0, 8)
            homes = [(rng.randint(0, n - 1), 0.2 + rng.uniform() * 2.5)
                     for _ in range(rng.randint(1, 20))]
            s = scenario_from(n, rng.randint(0, n // 2), 1.0,
                              [2.0 + rng.uniform() * 8.0 for _ in range(n)], homes)
            part = equalize(s)
            targets = sector_targets(s).targets
            by_id = s.task_by_id()
            for i, ids in enumerate(part.assignments):
                capped = math.fsum(by_id[t].duration for t in ids
                                   if part.provenance[t] != PROVENANCE_LEFTOVER)
                assert capped <= targets[i] + 1e-9

    def test_zero_target_sectors_never_used(self):
        s = scenario_from(4, 1, 1.0, (0.0, 5.0, 5.0, 5.0),
                          [(0, 1.0), (1, 2.0), (2, 2.0)])
        part = equalize(s)
        assert part.assignments[0] == ()
        assert check_partition(s, part) == []

    def test_leftover_with_dead_fov_is_infeasible(self):
        s = scenario_from(3, 0, 1.0, (0.0, 5.0, 5.0), [(0, 1.0)])
        with pytest.raises(InfeasibleScenarioError, match="task 0"):
            equalize(s)

    def test_invalid_scenario_rejected(self):
        # The scenario raises while it is built, before equalize sees it.
        with pytest.raises(ScenarioValidationError) as info:
            equalize(scenario_from(3, 1, 1.0, (5.0,) * 3, [(0, 0.0)]))
        assert info.value.violations == ["non-positive duration, task id 0"]

    def test_deterministic_byte_for_byte(self):
        rng = Xorshift64Star(5150)
        homes = [(rng.randint(0, 9), 0.2 + rng.uniform() * 2.5) for _ in range(40)]
        s = scenario_from(10, 2, 1.0, [3.0 + rng.uniform() * 6.0 for _ in range(10)],
                          homes)
        blobs = set()
        for _ in range(3):
            part = equalize(s)
            payload = {"assignments": [list(ids) for ids in part.assignments],
                       "provenance": {str(k): v for k, v in sorted(part.provenance.items())}}
            blobs.add(json.dumps(payload, sort_keys=True))
        assert len(blobs) == 1

    def test_overloaded_sector_is_relieved(self):
        # One sector holding twice its fair share sheds the excess onto its
        # neighbors, beating the broadside assignment.
        homes = [(2, 2.0)] * 8 + [(1, 2.0), (3, 2.0)] + \
                [(h, 2.0) for h in (0, 4, 5) for _ in range(2)]
        s = scenario_from(6, 1, 1.0, (10.0,) * 6, homes)
        greedy = load_report(s, equalize(s))
        trivial = load_report(s, broadside_baseline(s))
        assert greedy.max_relative_load < trivial.max_relative_load
        hot_demand = 16.0
        assert greedy.absolute_load[2] < hot_demand

    def test_completeness_and_fov_on_random_scenarios(self):
        rng = Xorshift64Star(99)
        for _ in range(40):
            n = 1 + rng.randint(0, 11)
            homes = [(rng.randint(0, n - 1), 0.2 + rng.uniform() * 2.5)
                     for _ in range(rng.randint(0, 15))]
            s = scenario_from(n, rng.randint(0, n), 1.0,
                              [1.0 + rng.uniform() * 9.0 for _ in range(n)], homes)
            assert check_partition(s, equalize(s)) == []
        # Generated scenarios with overloaded and starved (not dead) hotspots.
        meta = Xorshift64Star(100)
        for seed in range(40):
            n = 1 + meta.randint(0, 39)
            hot = {meta.randint(0, n - 1): ((0.3, 2.0)[meta.randint(0, 1)],
                                            (1.0, 4.0)[meta.randint(0, 1)])
                   for _ in range(meta.randint(0, 3))}
            s = generate(GenParams(
                n_sectors=n, fov_half_width=meta.randint(0, n), tasks_per_sector=(0, 8),
                hotspots=tuple((h, rm, tm) for h, (rm, tm) in hot.items()), seed=seed))
            part = equalize(s)
            assert check_partition(s, part) == []
            sector_of = part.sector_index()
            assert all(sector_of[t.id] == s.home[t.id] for t in s.tasks
                       if part.provenance[t.id] == PROVENANCE_OWN)


class TestReferenceEquivalence:
    def test_generated_scenarios(self):
        meta = Xorshift64Star(4404)
        for seed in range(200):
            n = 1 + meta.randint(0, 47)
            hot = {meta.randint(0, n - 1): ((0.0, 0.4, 2.0)[meta.randint(0, 2)],
                                            (1.0, 4.0)[meta.randint(0, 1)])
                   for _ in range(meta.randint(0, 2))}
            duration = ((0.5, 3.0), (1.0, 1.0))[meta.randint(0, 1)]
            assert_matches_reference(generate(GenParams(
                n_sectors=n, fov_half_width=meta.randint(0, n), tasks_per_sector=(0, 9),
                duration=duration, hotspots=tuple((h, rm, tm) for h, (rm, tm) in hot.items()),
                seed=seed)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fleet_scale(self, seed):
        # The benchmark's fleet shape: 1-degree sectors, fov 60, so every
        # sector reaches 121 homes; one starved hotspot and one dead sector.
        rng = Xorshift64Star(seed)
        hot = rng.randint(0, 359)
        dead = (hot + 1 + rng.randint(0, 358)) % 360
        s = generate(GenParams(n_sectors=360, fov_half_width=60, seed=seed,
                               hotspots=((hot, 0.5, 4.0), (dead, 0.0, 1.0))))
        assignments, provenance = assert_matches_reference(s)
        assert assignments[dead] == ()
        assert PROVENANCE_LEFTOVER in provenance.values()

    def test_quantized_durations_and_resources(self):
        # Few distinct durations and resources put ties into every ordering.
        rng = Xorshift64Star(4405)
        for _ in range(100):
            n = 1 + rng.randint(0, 15)
            homes = [(rng.randint(0, n - 1), (0.5, 1.0, 1.5, 2.0)[rng.randint(0, 3)])
                     for _ in range(rng.randint(0, 4 * n))]
            resources = [(0.0, 2.0, 4.0, 4.0)[rng.randint(0, 3)] for _ in range(n)]
            if not any(resources):
                resources[0] = 1.0
            assert_matches_reference(
                scenario_from(n, rng.randint(0, n), 1.0, resources, homes))

    def test_equal_durations_on_both_sides(self):
        # Sector 1 sees one 2-s task on each side; the lower id wins the FOV
        # fill, and the leftover's equal load ratios go to the nearer sector.
        s = scenario_from(3, 1, 1.0, (1.0, 2.0, 1.0), [(0, 2.0), (2, 2.0)])
        part = equalize(s)
        assert part.assignments == ((), (0,), (1,))
        assert part.provenance == {0: PROVENANCE_FOV, 1: PROVENANCE_LEFTOVER}
        assert_matches_reference(s)

    def test_nearer_home_beats_lower_id(self):
        s = scenario_from(5, 2, 1.0, (0.0, 0.0, 1.0, 0.0, 1.0), [(0, 1.0), (3, 1.0)])
        part = equalize(s)
        assert part.assignments == ((), (), (1,), (), (0,))
        assert part.provenance == {0: PROVENANCE_FOV, 1: PROVENANCE_FOV}
        assert_matches_reference(s)

    def test_half_circle_fov_counts_each_sector_once(self):
        # At N = 2w the offsets -w and +w name one sector; it must enter the
        # merge once, or its tasks would be taken twice.
        s = scenario_from(4, 2, 1.0, (1.0,) * 4, [(2, 1.0)] * 4)
        part = equalize(s)
        assert part.assignments == ((0,), (1,), (2,), (3,))
        assert part.provenance == {0: PROVENANCE_FOV, 1: PROVENANCE_FOV,
                                   2: PROVENANCE_OWN, 3: PROVENANCE_FOV}
        assert_matches_reference(s)
        for n in (2, 4, 6, 8):
            rng = Xorshift64Star(n)
            homes = [(rng.randint(0, n - 1), 0.5 + rng.randint(0, 3) * 0.5)
                     for _ in range(3 * n)]
            assert_matches_reference(scenario_from(
                n, n // 2, 1.0, [1.0 + rng.randint(0, 2) for _ in range(n)], homes))

    def test_exact_fit_after_skipped_head(self):
        # Sector 0 skips its neighbour's 1.9-s head and must stop on the
        # 1.0-s task that lands exactly on the cap, not skip past it.
        s = scenario_from(2, 1, 1.0, (1.0, 2.0),
                          [(1, 1.9), (1, 1.0), (1, 3 * (1.0 - 1e-9) - 2.9)])
        assert sector_targets(s).targets[0] + CAP_SLACK == 1.0
        part = equalize(s)
        assert part.assignments == ((1,), (0, 2))
        assert part.provenance[1] == PROVENANCE_FOV
        assert_matches_reference(s)

    @pytest.mark.parametrize("used, d, cap, filler, tag", [
        (0.07, 0.93, 1.0, 1.9999999970000002, PROVENANCE_FOV),
        (0.06, 0.51, 0.57, 1.1399999969999999, PROVENANCE_LEFTOVER),
    ], ids=["fits-as-a-sum-only", "fits-as-a-difference-only"])
    def test_fit_is_the_sum_first_fit_tests(self, used, d, cap, filler, tag):
        # Sector 0 holds its own task, then looks at task 1.  First-fit tests
        # used + d <= cap, and d <= cap - used rounds the other way here.
        s = scenario_from(2, 1, 1.0, (1.0, 2.0), [(0, used), (1, d), (1, filler)])
        assert sector_targets(s).targets[0] + CAP_SLACK == cap
        assert (used + d <= cap) != (d <= cap - used)
        part = equalize(s)
        assert part.assignments == ((0, 1), (2,))
        assert part.provenance[1] == tag
        assert_matches_reference(s)

    def test_zero_target_sectors(self):
        s = scenario_from(6, 1, 1.0, (0.0, 3.0, 0.0, 3.0, 0.0, 3.0),
                          [(h, 1.0 + 0.5 * (h % 3)) for h in range(6) for _ in range(3)])
        assignments, _ = assert_matches_reference(s)
        assert assignments[0] == assignments[2] == assignments[4] == ()

    def test_infeasible_leftover(self):
        # The first leftover (task 1, 2 s) is placeable; task 0 is not.
        s = scenario_from(5, 0, 1.0, (0.0, 1.0, 1.0, 1.0, 1.0),
                          [(0, 1.0), (1, 2.0), (2, 0.5)])
        assert assert_matches_reference(s) == (
            InfeasibleScenarioError,
            "task 0: every sector in its field of view has zero target")

    def test_single_sector(self):
        for fov in (0, 1, 3):
            s = scenario_from(1, fov, 1.0, (2.0,), [(0, 0.7), (0, 0.7), (0, 0.3), (0, 1.1)])
            assignments, _ = assert_matches_reference(s)
            assert assignments == ((0, 1, 2, 3),)


class TestStarvationFixture:
    def test_sector_keeps_only_neighbor_tasks(self):
        s = read_scenario(FIXTURES / "starvation.json")
        part = equalize(s)
        assert check_partition(s, part) == []
        starved = part.assignments[0]
        assert starved, "sector 0 should still execute something"
        assert all(s.home[tid] != 0 for tid in starved)
        # its own task is executed by a neighbor
        own = [tid for tid, home in s.home.items() if home == 0]
        assert own and all(part.sector_index()[tid] != 0 for tid in own)
