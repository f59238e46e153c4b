import math

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    PROVENANCE_FOV,
    PROVENANCE_OWN,
    ScenarioValidationError,
    SchedulePartition,
    broadside_baseline,
    build_partition,
    check_partition,
    equalize,
    generate,
    load_report,
    sector_targets,
)
from sectorsched import io as sio
from sectorsched.simulate import POLICY_PARTITION, simulate
from conftest import cyclic_distance, mutated, scenario_from


@pytest.fixture
def skewed():
    # durations {2,3,5} all home in sector 0, resources {4,8,8}
    return scenario_from(3, 1, 1.0, (4.0, 8.0, 8.0), [(0, 2.0), (0, 3.0), (0, 5.0)])


class TestSectorTargets:
    def test_direct_arithmetic(self, skewed):
        st = sector_targets(skewed)
        assert st.r_opt == pytest.approx(0.5)
        assert st.targets == pytest.approx([2.0, 4.0, 4.0])

    def test_zero_demand(self):
        s = scenario_from(2, 1, 1.0, (4.0, 8.0), [])
        st = sector_targets(s)
        assert st.r_opt == 0.0
        assert st.targets == pytest.approx([0.0, 0.0])

    def test_no_resources_infeasible(self):
        # Rejected while the scenario is built, so no target is ever asked for.
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(2, 1, 1.0, (0.0, 0.0), [(0, 1.0)])
        assert info.value.violations == [
            "all sector resources are zero but the task set is non-empty"]

    def test_targets_sum_to_demand(self, skewed):
        st = sector_targets(skewed)
        assert math.fsum(st.targets) == pytest.approx(10.0, rel=1e-9)

    def test_zero_resource_sector_gets_zero_target(self):
        s = scenario_from(3, 1, 1.0, (0.0, 5.0, 5.0), [(1, 2.0)])
        st = sector_targets(s)
        assert st.targets[0] == 0.0
        assert st.targets[1] > 0.0


class TestLoadReport:
    def test_broadside_overload(self, skewed):
        rep = load_report(skewed, broadside_baseline(skewed))
        assert rep.absolute_load == pytest.approx([10.0, 0.0, 0.0])
        assert rep.relative_load == pytest.approx([5.0, 0.0, 0.0])
        assert rep.max_relative_load == pytest.approx(5.0)
        assert rep.rotations_to_complete_bound == pytest.approx(10.0 / 4.0)

    def test_perfectly_equalized(self, skewed):
        ids = [t.id for t in skewed.tasks]  # durations 2, 3, 5
        part = build_partition(3, {ids[0]: 0, ids[1]: 1, ids[2]: 2},
                               {i: PROVENANCE_OWN for i in ids})
        # loads {2,3,5} against targets {2,4,4}: max is 5/4
        rep = load_report(skewed, part)
        assert rep.relative_load == pytest.approx([1.0, 0.75, 1.25])
        assert rep.max_relative_load == pytest.approx(1.25)

    def test_zero_target_with_load_is_infinite(self):
        s = scenario_from(2, 1, 1.0, (0.0, 4.0), [(0, 1.0)])
        rep = load_report(s, broadside_baseline(s))
        assert math.isinf(rep.relative_load[0])
        assert math.isinf(rep.max_relative_load)

    def test_zero_target_without_load_is_zero(self):
        s = scenario_from(2, 1, 1.0, (0.0, 4.0), [(0, 1.0)])
        part = build_partition(2, {0: 1}, {0: PROVENANCE_OWN})
        rep = load_report(s, part)
        assert rep.relative_load[0] == 0.0
        assert rep.max_relative_load == pytest.approx(1.0)
        assert rep.rotations_to_complete_bound == pytest.approx(0.25)

    def test_unknown_task_id(self, skewed):
        part = build_partition(3, {99: 0}, {99: PROVENANCE_OWN})
        with pytest.raises(InvalidInputError):
            load_report(skewed, part)

    def test_conservation(self, skewed):
        rep = load_report(skewed, broadside_baseline(skewed))
        assert math.fsum(rep.absolute_load) == pytest.approx(10.0, rel=1e-9)

    @pytest.fixture
    def six(self):
        s = generate(GenParams(n_sectors=6, fov_half_width=1, seed=3))
        return s, equalize(s)

    def test_task_listed_twice(self, six):
        s, part = six
        first = part.assignments[0][0]
        twice = SchedulePartition(
            assignments=(part.assignments[0], part.assignments[1] + (first,))
            + part.assignments[2:], provenance=part.provenance)
        with pytest.raises(InvalidInputError, match=f"task {first} assigned to sectors 0 and 1"):
            load_report(s, twice)

    def test_dropped_tasks(self, six):
        s, part = six
        dropped = SchedulePartition(
            assignments=((),) + part.assignments[1:], provenance=part.provenance)
        with pytest.raises(InvalidInputError, match="tasks never assigned"):
            load_report(s, dropped)

    def test_invalid_scenario(self, six):
        s, part = six
        with pytest.raises(ScenarioValidationError, match="non-finite duration inf"):
            load_report(mutated(s, "duration", math.inf), part)


class TestBroadsideBaseline:
    def test_every_task_at_home(self, skewed):
        part = broadside_baseline(skewed)
        for task in skewed.tasks:
            assert task.id in part.assignments[skewed.home[task.id]]
            assert part.provenance[task.id] == PROVENANCE_OWN
        assert check_partition(skewed, part) == []

    def test_empty_tasks(self):
        s = scenario_from(3, 1, 1.0, (1.0,) * 3, [])
        part = broadside_baseline(s)
        assert part.assignments == ((), (), ())

    def test_occupancy_equals_per_sector_demand(self):
        s = scenario_from(5, 2, 1.0, (4.0,) * 5,
                          [(0, 1.0), (0, 2.5), (2, 0.5), (4, 3.0)])
        rep = load_report(s, broadside_baseline(s))
        assert rep.absolute_load == pytest.approx([3.5, 0.0, 0.5, 0.0, 3.0])


class TestCheckPartition:
    def test_detects_fov_violation(self):
        s = scenario_from(8, 1, 1.0, (1.0,) * 8, [(0, 1.0)])
        part = build_partition(8, {0: 4}, {0: PROVENANCE_OWN})
        assert any("sectors from home" in p for p in check_partition(s, part))

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_fov_check_is_the_cyclic_distance(self, n):
        # Every (sector, home) pair and half-width: a problem exactly when the
        # cyclic distance exceeds the half-width, naming that distance.
        for w in range(n // 2 + 1):
            for home in range(n):
                s = scenario_from(n, w, 1.0, (1.0,) * n, [(home, 1.0)])
                for sector in range(n):
                    dist = cyclic_distance(sector, home, n)
                    expected = [] if dist <= w else [
                        f"task 0 executed {dist} sectors from home (fov half-width {w})"]
                    assert check_partition(s, build_partition(n, {0: sector})) == expected

    def test_detects_missing_and_duplicate(self):
        s = scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 1.0), (1, 1.0)])
        missing = build_partition(4, {0: 0}, {0: PROVENANCE_OWN})
        assert any("never assigned" in p for p in check_partition(s, missing))
        dup = SchedulePartition(assignments=((0,), (0, 1), (), ()),
                                provenance={0: PROVENANCE_OWN, 1: PROVENANCE_OWN})
        assert any("assigned to sectors" in p for p in check_partition(s, dup))

    def test_partial_tags_are_kept(self, tmp_path):
        s = scenario_from(3, 1, 1.0, (2.0,) * 3, [(0, 1.0), (1, 1.0), (2, 1.0)])
        part = build_partition(3, {0: 0, 1: 2, 2: 2}, {1: PROVENANCE_FOV, 7: PROVENANCE_OWN})
        assert part.assignments == ((0,), (), (1, 2))
        assert part.provenance == {1: PROVENANCE_FOV}
        assert build_partition(3, {0: 0, 1: 2, 2: 2}).provenance == {}
        assert check_partition(s, part) == []
        assert load_report(s, part).absolute_load == (1.0, 0.0, 2.0)
        sio.write_partition(part, tmp_path / "p.json")
        assert sio.read_partition(tmp_path / "p.json") == part

    def test_wrong_sector_count_stops_the_check(self):
        s = scenario_from(3, 1, 1.0, (2.0,) * 3, [(0, 1.0)])
        part = build_partition(2, {0: 0}, {0: PROVENANCE_OWN})
        assert check_partition(s, part) == ["partition covers 2 sectors, scenario has 3"]

    def test_detects_unknown_provenance_tag(self):
        s = scenario_from(3, 1, 1.0, (2.0,) * 3, [(0, 1.0), (1, 1.0)])
        part = build_partition(3, {0: 0, 1: 1}, {0: PROVENANCE_OWN, 1: "borrowed"})
        assert check_partition(s, part) == ["task 1 has unknown provenance tag 'borrowed'"]

    def test_detects_a_tag_for_a_task_no_row_assigns(self):
        s = generate(GenParams(n_sectors=6, fov_half_width=1, seed=3))
        part = equalize(s)
        stray = SchedulePartition(part.assignments, {**part.provenance, 999: PROVENANCE_OWN})
        problem = "task 999 has provenance tag 'own-sector' but no row assigns it"
        assert check_partition(s, stray) == [problem]
        with pytest.raises(InvalidInputError, match=problem):
            load_report(s, stray)
        with pytest.raises(InvalidInputError, match=problem):
            simulate(s, POLICY_PARTITION, stray)

    @pytest.mark.parametrize("partition", [None, "x", ((0,),)])
    def test_reports_a_non_partition(self, partition):
        s = scenario_from(1, 0, 1.0, (2.0,), [(0, 1.0)])
        assert check_partition(s, partition) == [
            f"expected a SchedulePartition, not {type(partition).__name__}"]

    def test_sector_of(self):
        part = build_partition(3, {5: 2, 6: 0}, {5: PROVENANCE_OWN, 6: PROVENANCE_OWN})
        assert part.sector_index() == {5: 2, 6: 0}
        assert part.sector_index()[5] == 2


def test_max_relative_load_at_least_one_for_valid_partitions():
    # Weighted mean of relative loads is 1, so the max cannot fall below it.
    from sectorsched import Xorshift64Star, equalize

    rng = Xorshift64Star(77)
    for _ in range(50):
        n = 2 + rng.randint(0, 6)
        homes = [(rng.randint(0, n - 1), 0.2 + rng.uniform() * 3.0)
                 for _ in range(1 + rng.randint(0, 11))]
        resources = [1.0 + rng.uniform() * 9.0 for _ in range(n)]
        s = scenario_from(n, rng.randint(0, n // 2), 1.0, resources, homes)
        for part in (broadside_baseline(s), equalize(s)):
            rep = load_report(s, part)
            assert rep.max_relative_load >= 1.0 - 1e-9
            total = math.fsum(t.duration for t in s.tasks)
            assert math.fsum(rep.absolute_load) == pytest.approx(total, rel=1e-9)
