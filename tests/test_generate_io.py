import json
import math

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    ScenarioFormatError,
    ScenarioValidationError,
    TWO_PI,
    Xorshift64Star,
    active_sectors,
    broadside_baseline,
    equalize,
    generate,
    load_report,
    sector_of_direction,
)
from sectorsched import io as sio
from sectorsched.simulate import POLICY_PARTITION, revisit_stats, simulate


class TestXorshift:
    def test_reference_streams(self):
        # Frozen outputs of the documented constants; these pin the format's
        # cross-platform seed determinism.
        assert [Xorshift64Star(0).next_u64() for _ in [0]] == [8916199331640804048]
        r = Xorshift64Star(0)
        assert [r.next_u64() for _ in range(3)] == [
            8916199331640804048, 16032783972208265725, 12954103179475586193]
        r = Xorshift64Star(42)
        assert [r.next_u64() for _ in range(3)] == [
            3580622183945639842, 10378725325292465923, 8967075514996744559]
        r = Xorshift64Star(2 ** 64 - 1)
        assert [r.next_u64() for _ in range(3)] == [
            548566541892062739, 1551473827710520191, 3571582152962876467]

    def test_uniform_in_unit_interval(self):
        r = Xorshift64Star(123)
        for _ in range(1000):
            u = r.uniform()
            assert 0.0 <= u < 1.0

    def test_randint_bounds(self):
        r = Xorshift64Star(9)
        seen = {r.randint(3, 7) for _ in range(500)}
        assert seen == {3, 4, 5, 6, 7}
        with pytest.raises(InvalidInputError):
            r.randint(5, 4)


class TestGenerate:
    def test_same_seed_same_scenario(self):
        p = GenParams(seed=1234)
        assert generate(p) == generate(p)

    def test_different_seed_differs(self):
        assert generate(GenParams(seed=1)) != generate(GenParams(seed=2))

    def test_standard_fov_is_eleven_sectors(self):
        s = generate(GenParams(n_sectors=30, fov_half_width=5, seed=3))
        fov = active_sectors(0, s.fov_half_width, s.n_sectors)
        assert len(fov) == 11
        assert len(fov) / s.n_sectors * 360.0 == pytest.approx(132.0)  # about 130 deg

    def test_narrow_fov_is_three_sectors(self):
        s = generate(GenParams(n_sectors=30, fov_half_width=1, seed=3))
        fov = active_sectors(0, s.fov_half_width, s.n_sectors)
        assert len(fov) == 3
        assert len(fov) / s.n_sectors * 360.0 == pytest.approx(36.0)

    def test_tasks_live_in_their_sector(self):
        s = generate(GenParams(n_sectors=12, seed=77))
        for t in s.tasks:
            assert t.home_sector == sector_of_direction(t.phi, 12)
            assert -math.pi <= t.theta <= math.pi
            assert 0.5 <= t.duration <= 3.0
        assert all(5.0 <= r <= 20.0 for r in s.resources)

    def test_hotspot_zero_resources(self):
        s = generate(GenParams(n_sectors=6, fov_half_width=1,
                               hotspots=((2, 0.0, 1.0),), seed=5))
        assert s.resources[2] == 0.0

    def test_hotspot_task_multiplier(self):
        base = generate(GenParams(n_sectors=6, fov_half_width=1, seed=5,
                                  tasks_per_sector=(4, 4)))
        hot = generate(GenParams(n_sectors=6, fov_half_width=1, seed=5,
                                 tasks_per_sector=(4, 4), hotspots=((2, 1.0, 3.0),)))
        count = lambda s, i: sum(1 for t in s.tasks if t.home_sector == i)
        assert count(hot, 2) == 3 * count(base, 2)

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            GenParams(duration=(0.0, 1.0))
        with pytest.raises(InvalidInputError):
            GenParams(tasks_per_sector=(5, 2))
        with pytest.raises(InvalidInputError):
            GenParams(hotspots=((99, 1.0, 1.0),))


class TestScenarioRoundTrip:
    def test_write_read_identity(self, tmp_path):
        s = generate(GenParams(seed=99, n_sectors=14, fov_half_width=3))
        path = tmp_path / "s.json"
        sio.write_scenario(s, path)
        assert sio.read_scenario(path) == s

    def test_byte_identical_serialization(self, tmp_path):
        s = generate(GenParams(seed=2))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sio.write_scenario(s, a)
        sio.write_scenario(s, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="invalid JSON"):
            sio.read_scenario(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_sectors": 3}), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="missing field"):
            sio.read_scenario(path)

    def test_phi_at_two_pi_is_a_parse_error(self, tmp_path):
        payload = {"n_sectors": 3, "fov_half_width": 1, "dt": 1.0,
                   "resources": [1.0, 1.0, 1.0],
                   "tasks": [{"id": 0, "phi": TWO_PI, "theta": 0.0, "duration": 1.0}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=r"tasks\[0\]"):
            sio.read_scenario(path)

    def test_duplicate_id_is_a_validation_error(self, tmp_path):
        payload = {"n_sectors": 3, "fov_half_width": 1, "dt": 1.0,
                   "resources": [1.0, 1.0, 1.0],
                   "tasks": [{"id": 4, "phi": 0.1, "theta": 0.0, "duration": 1.0},
                             {"id": 4, "phi": 0.2, "theta": 0.0, "duration": 1.0}]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioValidationError, match="duplicate task id 4"):
            sio.read_scenario(path)

    def test_wrong_type_reports_field(self, tmp_path):
        payload = {"n_sectors": 3, "fov_half_width": 1, "dt": "fast",
                   "resources": [1.0, 1.0, 1.0], "tasks": []}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="dt"):
            sio.read_scenario(path)

    def test_infinity_token_is_a_validation_error(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"n_sectors": 2, "fov_half_width": 1, "dt": 1.0, '
            '"resources": [Infinity, 1.0], '
            '"tasks": [{"id": 0, "phi": 0.1, "theta": 0.0, "duration": NaN}]}',
            encoding="utf-8")
        with pytest.raises(ScenarioValidationError) as info:
            sio.read_scenario(path)
        assert info.value.violations == [
            "non-finite resources inf in sector 0",
            "non-finite duration nan, task id 0",
        ]


class TestReadPartitionFormat:
    @pytest.mark.parametrize("payload, field", [
        ({"assignments": [["a"]], "provenance": {}}, r"assignments\[0\]"),
        ({"assignments": [[1.5]], "provenance": {}}, r"assignments\[0\]"),
        ({"assignments": [[], [True]], "provenance": {}}, r"assignments\[1\]"),
        ({"assignments": [3], "provenance": {}}, r"assignments\[0\]"),
        ({"assignments": [[0]], "provenance": {"x": "own-sector"}}, "provenance"),
        ({"assignments": [[0]], "provenance": {"-1": "own-sector"}}, "provenance"),
        ([[0]], "top level"),
    ], ids=["string-id", "float-id", "bool-id", "row-not-list",
            "provenance-key", "negative-key", "not-an-object"])
    def test_malformed(self, tmp_path, payload, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=field):
            sio.read_partition(path)


class TestArtifactRoundTrips:
    def test_partition(self, tmp_path):
        s = generate(GenParams(seed=31, n_sectors=8, fov_half_width=2,
                               tasks_per_sector=(1, 3)))
        part = equalize(s)
        path = tmp_path / "p.json"
        sio.write_partition(part, path)
        back = sio.read_partition(path)
        assert back.assignments == part.assignments
        assert dict(back.provenance) == dict(part.provenance)

    def test_load_report(self, tmp_path):
        s = generate(GenParams(seed=8, n_sectors=6, fov_half_width=2,
                               tasks_per_sector=(1, 3)))
        rep = load_report(s, broadside_baseline(s))
        path = tmp_path / "loads.csv"
        sio.write_load_report(rep, path)
        rows = sio.read_load_report(path)
        assert [r[0] for r in rows] == list(range(6))
        for i, (_, load, target, rel) in enumerate(rows):
            assert load == rep.absolute_load[i]
            assert target == rep.target[i]
            assert rel == rep.relative_load[i]

    def test_trace(self, tmp_path):
        s = generate(GenParams(seed=17, n_sectors=5, fov_half_width=1,
                               tasks_per_sector=(1, 2)))
        trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=2)
        path = tmp_path / "trace.csv"
        sio.write_trace(trace, s, path)
        back = sio.read_trace(path)
        assert tuple(back) == trace.records

    def test_revisit(self, tmp_path):
        s = generate(GenParams(seed=17, n_sectors=5, fov_half_width=1,
                               tasks_per_sector=(1, 2)))
        trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=3)
        stats = revisit_stats(trace, s)
        path = tmp_path / "revisit.csv"
        sio.write_revisit_stats(stats, path)
        text = path.read_text(encoding="utf-8").splitlines()
        assert text[0] == "task_id,home_sector,exec_sector,interval_s,interval_rot"
        assert len(text) == 1 + len(stats.per_task)

    def test_infinite_relative_load_round_trips(self, tmp_path):
        from conftest import scenario_from

        s = scenario_from(2, 1, 1.0, (0.0, 4.0), [(0, 1.0)])
        rep = load_report(s, broadside_baseline(s))
        path = tmp_path / "inf.csv"
        sio.write_load_report(rep, path)
        rows = sio.read_load_report(path)
        assert math.isinf(rows[0][3])
