import math

import pytest

from sectorsched import (
    InvalidInputError,
    ScenarioValidationError,
    Scenario,
    SurveillanceTask,
    TWO_PI,
    Xorshift64Star,
    active_sectors,
    angular_sector_distance,
    main_sector,
    make_task,
    sector_of_direction,
)
from sectorsched.model import validate_scenario
from conftest import dedup_active_sectors, scenario_from


class TestSectorOfDirection:
    def test_lower_boundary(self):
        assert sector_of_direction(0.0, 30) == 0

    def test_half_circle(self):
        assert sector_of_direction(math.pi, 30) == 15

    def test_three_quarters(self):
        assert sector_of_direction(3 * math.pi / 2, 4) == 3

    def test_just_below_full_circle(self):
        assert sector_of_direction(math.nextafter(TWO_PI, 0.0), 30) == 29

    def test_out_of_range_phi(self):
        with pytest.raises(InvalidInputError):
            sector_of_direction(TWO_PI, 30)
        with pytest.raises(InvalidInputError):
            sector_of_direction(-0.1, 30)

    def test_zero_sectors(self):
        with pytest.raises(InvalidInputError):
            sector_of_direction(1.0, 0)

    def test_partition_covers_and_is_disjoint(self):
        # Every azimuth gets exactly one sector; sector boundaries line up.
        rng = Xorshift64Star(11)
        for n in (1, 4, 30, 37):
            for _ in range(300):
                phi = rng.uniform() * TWO_PI
                s = sector_of_direction(phi, n)
                assert 0 <= s < n
            for i in range(n):
                assert sector_of_direction(i * TWO_PI / n, n) == i


class TestMainSector:
    def test_start(self):
        assert main_sector(0.0, 30, 0.1) == 0

    def test_mid_pass(self):
        assert main_sector(0.35, 30, 0.1) == 3

    def test_full_rotation_wraps(self):
        assert main_sector(3.0, 30, 0.1) == 0

    def test_bad_dt(self):
        with pytest.raises(InvalidInputError):
            main_sector(1.0, 30, 0.0)

    def test_negative_time(self):
        with pytest.raises(InvalidInputError):
            main_sector(-1.0, 30, 0.1)

    def test_rotation_periodicity(self):
        rng = Xorshift64Star(5)
        for _ in range(200):
            n = 1 + rng.randint(0, 19)
            dt = 0.05 + rng.uniform()
            t = rng.uniform() * 40.0
            assert main_sector(t + n * dt, n, dt) == main_sector(t, n, dt)


class TestActiveSectors:
    def test_wide_fov(self):
        assert active_sectors(0, 5, 30) == (25, 26, 27, 28, 29, 0, 1, 2, 3, 4, 5)

    def test_narrow_fov(self):
        assert active_sectors(2, 1, 30) == (1, 2, 3)

    def test_identity(self):
        assert active_sectors(7, 0, 30) == (7,)

    def test_always_contains_main(self):
        rng = Xorshift64Star(9)
        for _ in range(200):
            n_sectors = 1 + rng.randint(0, 19)
            m = rng.randint(0, n_sectors - 1)
            fov = rng.randint(0, n_sectors)
            result = active_sectors(m, fov, n_sectors)
            assert m in result
            assert len(result) == len(set(result))
            assert len(result) == min(2 * min(fov, n_sectors // 2) + 1, n_sectors)

    def test_clamped_to_full_coverage(self):
        assert set(active_sectors(3, 99, 6)) == set(range(6))
        assert set(active_sectors(2, 2, 5)) == set(range(5))

    def test_main_sector_out_of_range(self):
        with pytest.raises(InvalidInputError):
            active_sectors(5, 1, 5)

    def test_matches_dedup_definition(self):
        for n_sectors in range(1, 13):
            for m in range(n_sectors):
                for fov in range(n_sectors + 2):
                    assert active_sectors(m, fov, n_sectors) == \
                        dedup_active_sectors(m, fov, n_sectors)

    def test_matches_distance_when_fov_fits(self):
        rng = Xorshift64Star(13)
        for _ in range(200):
            n_sectors = 3 + rng.randint(0, 17)
            fov = rng.randint(0, (n_sectors - 1) // 2)
            a = rng.randint(0, n_sectors - 1)
            reachable = set(active_sectors(a, fov, n_sectors))
            for b in range(n_sectors):
                assert (angular_sector_distance(a, b, n_sectors) <= fov) == (b in reachable)


class TestAngularSectorDistance:
    def test_wraparound_adjacency(self):
        assert angular_sector_distance(0, 29, 30) == 1

    def test_identity(self):
        assert angular_sector_distance(5, 5, 30) == 0

    def test_antipodal(self):
        assert angular_sector_distance(0, 15, 30) == 15

    def test_symmetric(self):
        rng = Xorshift64Star(3)
        for _ in range(100):
            n = 1 + rng.randint(0, 30)
            a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
            d = angular_sector_distance(a, b, n)
            assert d == angular_sector_distance(b, a, n)
            assert (d == 0) == (a == b)


class TestSurveillanceTask:
    def test_ranges(self):
        make_task(0, 0.0, math.pi, 1.0, 4)
        make_task(1, math.nextafter(TWO_PI, 0.0), -math.pi, 1.0, 4)
        with pytest.raises(InvalidInputError, match=r"phi=6\.28.* outside \[0, 2\*pi\)"):
            make_task(2, TWO_PI, 0.0, 1.0, 4)
        with pytest.raises(InvalidInputError, match=r"theta=3\.2 outside \[-pi, pi\]"):
            make_task(3, 1.0, 3.2, 1.0, 4)

    def test_fields_checked_without_make_task(self):
        task = SurveillanceTask(id=0, phi=1.0, theta=-0.5, duration=2.0, home_sector=0)
        assert (task.phi, task.theta) == (1.0, -0.5)
        for phi, theta in ((-0.1, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, -3.2)):
            with pytest.raises(InvalidInputError):
                SurveillanceTask(id=0, phi=phi, theta=theta, duration=1.0, home_sector=0)


class TestScenario:
    def test_fov_clamped(self):
        s = Scenario(n_sectors=6, fov_half_width=10, dt=1.0, resources=(1.0,) * 6)
        assert s.fov_half_width == 3

    def test_structural_errors(self):
        with pytest.raises(InvalidInputError):
            Scenario(n_sectors=0, fov_half_width=0, dt=1.0, resources=())
        with pytest.raises(InvalidInputError):
            Scenario(n_sectors=2, fov_half_width=0, dt=0.0, resources=(1.0, 1.0))
        with pytest.raises(InvalidInputError):
            Scenario(n_sectors=2, fov_half_width=0, dt=1.0, resources=(1.0,))
        for dt in (math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                Scenario(n_sectors=2, fov_half_width=0, dt=dt, resources=(1.0, 1.0))

    def test_rotation_time(self):
        s = Scenario(n_sectors=4, fov_half_width=1, dt=0.5, resources=(1.0,) * 4)
        assert s.rotation_time == 2.0


class TestValidateScenario:
    """A scenario validates itself: a violation raises while it is built."""

    def test_well_formed(self):
        s = scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 1.0), (2, 0.5)])
        assert validate_scenario(s) == []

    def test_non_positive_duration(self):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 0.0)])
        assert info.value.violations == ["non-positive duration, task id 0"]

    def test_inconsistent_home_sector(self):
        bad = SurveillanceTask(id=0, phi=0.1, theta=0.0, duration=1.0, home_sector=3)
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=4, fov_half_width=1, dt=1.0,
                     resources=(1.0,) * 4, tasks=(bad,))
        assert info.value.violations == [
            "inconsistent home sector, task id 0: stored 3, phi implies 0"]

    def test_duplicate_ids(self):
        t0 = make_task(7, 0.1, 0.0, 1.0, 4)
        t1 = make_task(7, 0.2, 0.0, 1.0, 4)
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=4, fov_half_width=1, dt=1.0,
                     resources=(1.0,) * 4, tasks=(t0, t1))
        assert info.value.violations == ["duplicate task id 7"]

    def test_zero_resources_with_tasks(self):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(2, 1, 1.0, (0.0, 0.0), [(0, 1.0)])
        assert info.value.violations == [
            "all sector resources are zero but the task set is non-empty"]

    def test_negative_resource(self):
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=2, fov_half_width=1, dt=1.0, resources=(-1.0, 2.0))
        assert info.value.violations == ["negative resources -1.0 in sector 0"]

    @pytest.mark.parametrize("resources, durations, violation", [
        ((1e308, 1e308), (1.0,), "sector resources sum beyond the float range"),
        ((1.0, 1.0), (1e308, 1e308), "task durations sum beyond the float range")])
    def test_sum_beyond_float_range(self, resources, durations, violation):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(2, 1, 1.0, resources, [(0, d) for d in durations])
        assert info.value.violations == [violation]


@pytest.mark.filterwarnings("error")
class TestNonFiniteInputs:
    """Non-finite numbers are their own violation, before any arithmetic."""

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_resources(self, bad):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(3, 1, 1.0, (2.0, bad, 2.0), [(0, 1.0), (1, 1.0)])
        assert info.value.violations == [f"non-finite resources {bad!r} in sector 1"]

    def test_nan_resources_are_not_reported_as_zero(self):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(2, 1, 1.0, (math.nan, math.nan), [(0, 1.0)])
        assert not any("resources are zero" in v for v in info.value.violations)
        assert len(info.value.violations) == 2

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_durations(self, bad):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(3, 1, 1.0, (2.0,) * 3, [(0, 1.0), (2, bad)])
        assert info.value.violations == [f"non-finite duration {bad!r}, task id 1"]
