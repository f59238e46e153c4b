import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from sectorsched import (
    InvalidInputError,
    ScenarioValidationError,
    Scenario,
    SurveillanceTask,
    Xorshift64Star,
)
from sectorsched.model import fov_offsets, validate_scenario
from conftest import cyclic_distance, dedup_active_sectors, home_sector, scenario_from


def homes(phis, n_sectors):
    """``Scenario.home`` of tasks 0, 1, ... at azimuths ``phis``, in task order."""
    s = Scenario(n_sectors=n_sectors, fov_half_width=0, dt=1.0, resources=(1.0,) * n_sectors,
                 tasks=tuple(SurveillanceTask(i, phi, 0.0, 1.0) for i, phi in enumerate(phis)))
    return [s.home[i] for i in range(len(phis))]


class TestSectorOfDirection:
    """The home-sector rule, ``Scenario.home``: the slice of N equal azimuth
    slices a task's direction falls in."""

    def test_lower_boundary(self):
        assert homes([0.0], 30) == [0]

    def test_half_circle(self):
        assert homes([math.pi], 30) == [15]

    def test_three_quarters(self):
        assert homes([3 * math.pi / 2], 4) == [3]

    def test_just_below_full_circle(self):
        for n in (1, 4, 30, 360):
            assert homes([math.nextafter(math.tau, 0.0)], n) == [n - 1]

    def test_boundary_tolerance(self):
        # Within 1e-9 sector widths below a boundary counts as past it.
        for n in (4, 30, 360):
            assert homes([(3 - 1e-10) * math.tau / n, (3 - 1e-8) * math.tau / n], n) == [3, 2]

    def test_out_of_range_phi(self):
        # No home outside [0, 2*pi): the task itself is refused.
        for phi in (math.tau, -0.1):
            with pytest.raises(InvalidInputError):
                homes([phi], 30)

    def test_zero_sectors(self):
        with pytest.raises(InvalidInputError):
            homes([1.0], 0)

    @pytest.mark.parametrize("n_sectors", [2.5, 4.0, True])
    def test_non_integer_sector_count(self, n_sectors):
        with pytest.raises(InvalidInputError, match="must be a positive integer"):
            Scenario(n_sectors=n_sectors, fov_half_width=0, dt=1.0, resources=(1.0,) * 4)

    def test_partition_covers_and_is_disjoint(self):
        # Every azimuth gets exactly one sector; sector boundaries line up.
        rng = Xorshift64Star(11)
        for n in (1, 4, 30, 37):
            phis = [rng.uniform() * math.tau for _ in range(300)]
            found = homes(phis, n)
            assert found == [home_sector(phi, n) for phi in phis]
            assert all(0 <= h < n for h in found)
            assert homes([i * math.tau / n for i in range(n)], n) == list(range(n))


def active_sectors(m, fov, n_sectors):
    """Sectors reachable while the main sector is ``m``, as the equalizer,
    the simulator and the exact search reach them."""
    return tuple((m + c) % n_sectors for c in fov_offsets(fov, n_sectors))


class TestActiveSectors:
    """The field of view the pipeline runs: ``model.fov_offsets``."""

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
        assert fov_offsets(99, 6) == fov_offsets(3, 6) == range(-3, 3)

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
                assert (cyclic_distance(a, b, n_sectors) <= fov) == (b in reachable)

    def test_offset_is_the_cyclic_distance(self):
        # For every field of view, wider than the circle included.
        for n_sectors in range(1, 13):
            for fov in range(n_sectors + 2):
                for c in fov_offsets(fov, n_sectors):
                    assert cyclic_distance(c % n_sectors, 0, n_sectors) == abs(c)


class TestSurveillanceTask:
    def test_ranges(self):
        SurveillanceTask(0, 0.0, math.pi, 1.0)
        SurveillanceTask(1, math.nextafter(math.tau, 0.0), -math.pi, 1.0)
        with pytest.raises(InvalidInputError, match=r"phi=6\.28.* outside \[0, 2\*pi\)"):
            SurveillanceTask(2, math.tau, 0.0, 1.0)
        with pytest.raises(InvalidInputError, match=r"theta=3\.2 outside \[-pi, pi\]"):
            SurveillanceTask(3, 1.0, 3.2, 1.0)

    def test_fields_checked_without_make_task(self):
        task = SurveillanceTask(id=0, phi=1.0, theta=-0.5, duration=2.0)
        assert (task.phi, task.theta) == (1.0, -0.5)
        for phi, theta in ((-0.1, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, -3.2)):
            with pytest.raises(InvalidInputError):
                SurveillanceTask(id=0, phi=phi, theta=theta, duration=1.0)


    @pytest.mark.parametrize("field", ["phi", "theta", "duration"])
    @pytest.mark.parametrize("value", [True, False, Fraction(1, 2), Decimal("0.5"), "0.5",
                                       None, 10 ** 400],
                             ids=["true", "false", "fraction", "decimal", "str", "none",
                                  "huge-int"])
    def test_field_that_a_file_cannot_hold(self, field, value):
        # write_scenario would write true, a Fraction would not serialize, and
        # read_scenario refuses an int beyond the float range.
        fields = {"id": 0, "phi": 1.0, "theta": 0.0, "duration": 1.0, field: value}
        with pytest.raises(InvalidInputError, match=field):
            SurveillanceTask(**fields)


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

    @pytest.mark.parametrize("dt", ["x", None, (1.0,), True, Fraction(1, 2)])
    def test_non_numeric_dt(self, dt):
        with pytest.raises(InvalidInputError, match="dt="):
            Scenario(n_sectors=2, fov_half_width=0, dt=dt, resources=(1.0, 1.0))

    def test_dt_beyond_float_range(self):
        with pytest.raises(InvalidInputError, match="dt: an int beyond the float range"):
            Scenario(n_sectors=2, fov_half_width=0, dt=10 ** 400, resources=(1.0, 1.0))

    def test_bool_counts_rejected(self):
        # True and False are ints, but a scenario file cannot hold them as counts.
        for counts in ({"n_sectors": True, "fov_half_width": 0},
                       {"n_sectors": 1, "fov_half_width": False}):
            with pytest.raises(InvalidInputError, match="integer"):
                Scenario(dt=1.0, resources=(1.0,), **counts)

    def test_rotation_time(self):
        s = Scenario(n_sectors=4, fov_half_width=1, dt=0.5, resources=(1.0,) * 4)
        assert s.rotation_time == 2.0

    def test_replace_rederives_home(self):
        # The four tasks sit in quarters 0, 3, 1, 3 of the circle.  With a
        # stored home sector, replacing the sector count made the scenario
        # inconsistent; now the home sectors follow the new count.
        s = scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 1.0), (3, 1.0), (1, 1.0), (3, 1.0)])
        for m in (1, 2, 8, 12):
            t = dataclasses.replace(s, n_sectors=m, resources=(1.0,) * m)
            assert t.home == {task.id: home_sector(task.phi, m) for task in s.tasks}
            assert t.tasks == s.tasks
        assert dataclasses.replace(s, n_sectors=2, resources=(1.0,) * 2).home == \
            {0: 0, 1: 1, 2: 0, 3: 1}
        assert dataclasses.replace(s) == s and dataclasses.replace(s).home == s.home


class TestValidateScenario:
    """A scenario validates itself: a violation raises while it is built."""

    def test_well_formed(self):
        s = scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 1.0), (2, 0.5)])
        assert validate_scenario(s) == []

    def test_non_positive_duration(self):
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(4, 1, 1.0, (1.0,) * 4, [(0, 0.0)])
        assert info.value.violations == ["non-positive duration, task id 0"]

    def test_duplicate_ids(self):
        t0 = SurveillanceTask(7, 0.1, 0.0, 1.0)
        t1 = SurveillanceTask(7, 0.2, 0.0, 1.0)
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

    def test_bool_task_id(self):
        # read_scenario refuses a bool id, so a scenario must not hold one.
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=2, fov_half_width=1, dt=1.0, resources=(1.0, 1.0),
                     tasks=(SurveillanceTask(True, 0.1, 0.0, 1.0),))
        assert info.value.violations == ["tasks[0]: task id is not an int in [0, 2**63)"]

    def test_task_id_beyond_the_float_range(self):
        # Ids lie below 2**63, as a trace's do; the message names the task
        # by its place, never by the id's digits.
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=2, fov_half_width=1, dt=1.0, resources=(1.0, 1.0),
                     tasks=(SurveillanceTask(10 ** 5000, 0.1, 0.0, 1.0),))
        assert info.value.violations == ["tasks[0]: task id is not an int in [0, 2**63)"]

    def test_negative_task_id_beyond_the_float_range(self):
        # Its repr would pass the int-to-str digit limit and raise ValueError.
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=2, fov_half_width=1, dt=1.0, resources=(1.0, 1.0),
                     tasks=(SurveillanceTask(-10 ** 5000, 0.1, 0.0, 1.0),))
        assert info.value.violations == ["tasks[0]: task id is not an int in [0, 2**63)"]

    def test_a_duration_violation_names_a_huge_id_without_its_digits(self):
        with pytest.raises(ScenarioValidationError) as info:
            Scenario(n_sectors=2, fov_half_width=1, dt=1.0, resources=(1.0, 1.0),
                     tasks=(SurveillanceTask(10 ** 400, 0.1, 0.0, math.nan),))
        assert info.value.violations == [
            "tasks[0]: task id is not an int in [0, 2**63)",
            "non-finite duration nan, tasks[0]"]

    def test_load_ratio_beyond_float_range(self):
        # sector_targets would divide 3.0 by 5e-324, but 5e-324 is below the
        # shortest resource of the domain, 2**-64.
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from(2, 1, 1.0, (5e-324, 0.0), [(0, 1.0), (1, 2.0)])
        assert info.value.violations == [
            "resources 5e-324 in sector 0 neither 0 nor in [2**-64, 2**64] s"]


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
