import json
import math
import re
from fractions import Fraction

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    ScenarioFormatError,
    ScenarioValidationError,
    Xorshift64Star,
    broadside_baseline,
    equalize,
    generate,
    load_report,
    sector_of_direction,
)
from sectorsched import io as sio
from sectorsched.model import fov_offsets
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

    @pytest.mark.parametrize("lo, hi", [(0, 2.5), (0.5, 2), (False, 3)])
    def test_randint_needs_int_ends(self, lo, hi):
        with pytest.raises(InvalidInputError, match="must be ints"):
            Xorshift64Star(1).randint(lo, hi)


class TestGenerate:
    def test_azimuth_at_the_top_of_the_last_sector_stays_below_two_pi(self, monkeypatch):
        # The largest draw, 1 - 2**-53, puts (N - 1 + u) * 2*pi/N at 2*pi
        # after rounding for N = 4; the generator clamps it into sector N - 1.
        monkeypatch.setattr(Xorshift64Star, "uniform", lambda self: 1.0 - 2.0 ** -53)
        s = generate(GenParams(n_sectors=4, fov_half_width=1, tasks_per_sector=(1, 1)))
        last = s.tasks[-1]
        assert last.phi == math.nextafter(math.tau, 0.0) < math.tau
        assert s.home[last.id] == 3

    def test_same_seed_same_scenario(self):
        p = GenParams(seed=1234)
        assert generate(p) == generate(p)

    def test_different_seed_differs(self):
        assert generate(GenParams(seed=1)) != generate(GenParams(seed=2))

    def test_standard_fov_is_eleven_sectors(self):
        s = generate(GenParams(n_sectors=30, fov_half_width=5, seed=3))
        fov = fov_offsets(s.fov_half_width, s.n_sectors)
        assert len(fov) == 11
        assert len(fov) / s.n_sectors * 360.0 == pytest.approx(132.0)  # about 130 deg

    def test_narrow_fov_is_three_sectors(self):
        s = generate(GenParams(n_sectors=30, fov_half_width=1, seed=3))
        fov = fov_offsets(s.fov_half_width, s.n_sectors)
        assert len(fov) == 3
        assert len(fov) / s.n_sectors * 360.0 == pytest.approx(36.0)

    def test_tasks_live_in_their_sector(self):
        s = generate(GenParams(n_sectors=12, seed=77))
        for t in s.tasks:
            assert s.home[t.id] == sector_of_direction(t.phi, 12)
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
        count = lambda s, i: sum(1 for home in s.home.values() if home == i)
        assert count(hot, 2) == 3 * count(base, 2)

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            GenParams(duration=(0.0, 1.0))
        with pytest.raises(InvalidInputError):
            GenParams(tasks_per_sector=(5, 2))
        with pytest.raises(InvalidInputError):
            GenParams(hotspots=((99, 1.0, 1.0),))

    @pytest.mark.parametrize("n_sectors", [2.5, 4.0, True])
    def test_non_integer_sector_count(self, n_sectors):
        with pytest.raises(InvalidInputError, match="must be a positive integer"):
            GenParams(n_sectors=n_sectors)

    @pytest.mark.parametrize("tasks", [(1.5, 3), (1, 3.0), (False, 3)])
    def test_non_integer_task_count(self, tasks):
        with pytest.raises(InvalidInputError, match="tasks_per_sector"):
            GenParams(tasks_per_sector=tasks)

    @pytest.mark.parametrize("sector", [1.5, 1.0, True])
    def test_non_integer_hotspot_sector(self, sector):
        with pytest.raises(InvalidInputError, match="hotspot sector"):
            GenParams(hotspots=((sector, 0.0, 1.0),))

    @pytest.mark.parametrize("knobs", [
        {"seed": math.nan}, {"seed": math.inf}, {"seed": 1.5}, {"seed": "7"},
        {"seed": True}, {"tasks_per_sector": (1, 2, 3)}, {"tasks_per_sector": (4,)},
        {"duration": (1.0,)}, {"duration": (1.0, 2.0, 3.0)}, {"resources": 5.0},
        {"hotspots": ((1, 2.0),)}, {"hotspots": ((1, 2.0, 1.0, 0.0),)},
        {"hotspots": ((1, "a", 1.0),)}, {"duration": ("a", "b")},
        {"fov_half_width": "a"}, {"fov_half_width": 1.5}, {"dt": "x"},
        {"hotspots": 5}, {"hotspots": None}, {"dt": True}, {"dt": Fraction(1, 2)},
        {"dt": 10 ** 400}])
    def test_malformed_knob_is_a_typed_error(self, knobs):
        with pytest.raises(InvalidInputError):
            GenParams(**knobs)

    def test_negative_seed_is_valid(self):
        assert generate(GenParams(seed=-3)) == generate(GenParams(seed=-3))

    @pytest.mark.parametrize("mults", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
    def test_non_finite_hotspot_multiplier(self, mults):
        with pytest.raises(InvalidInputError, match="must be finite"):
            GenParams(hotspots=((1, *mults),))


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
                   "tasks": [{"id": 0, "phi": math.tau, "theta": 0.0, "duration": 1.0}]}
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

    @pytest.mark.parametrize("resource, kind", [
        (True, "bool"), ("5", "str"), (None, "NoneType")])
    def test_resource_must_be_a_number(self, tmp_path, resource, kind):
        payload = {"n_sectors": 3, "fov_half_width": 1, "dt": 1.0,
                   "resources": [1.0, resource, 1.0], "tasks": []}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError,
                           match=rf"resources\[1\]: unexpected type {kind}"):
            sio.read_scenario(path)

    @pytest.mark.parametrize("field", [
        "scenario.resources[1]", "scenario.dt", "tasks[0].phi", "tasks[0].theta",
        "tasks[0].duration"])
    def test_integer_beyond_float_range_reports_field(self, tmp_path, field):
        payload = {"n_sectors": 3, "fov_half_width": 1, "dt": 1.0,
                   "resources": [1.0, 1.0, 1.0],
                   "tasks": [{"id": 0, "phi": 0.1, "theta": 0.0, "duration": 1.0}]}
        huge = 10 ** 400
        if field.startswith("scenario.resources"):
            payload["resources"][1] = huge
        elif field == "scenario.dt":
            payload["dt"] = huge
        else:
            payload["tasks"][0][field.split(".")[1]] = huge
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=re.escape(field)):
            sio.read_scenario(path)

    @pytest.mark.parametrize("n_sectors", [10 ** 400, "1" + "0" * 5000],
                             ids=["401-digits", "5001-digits"])
    def test_oversized_sector_count_is_a_format_error(self, tmp_path, n_sectors):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n_sectors": %s, "fov_half_width": 1, "dt": 1.0, "resources": [1.0], '
            '"tasks": [{"id": 0, "phi": 0.1, "theta": 0.0, "duration": 1.0}]}'
            % n_sectors, encoding="utf-8")
        with pytest.raises(ScenarioFormatError):
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
        ({"assignments": [[1]], "provenance": {"01": "own-sector"}}, "'01'"),
        ({"assignments": [[1]], "provenance": {"1": "fov-equalized", "01": "own-sector"}},
         "'01'"),
        ({"assignments": [[0]], "provenance": {"00": "own-sector"}}, "'00'"),
        ({"assignments": [[0]], "provenance": {"1" * 5000: "own-sector"}}, "provenance"),
        ({"assignments": [[0]], "provenance": {"0": 5}}, r"provenance\.0: .* int"),
        ({"assignments": [[0]], "provenance": {"0": None}}, r"provenance\.0: .* NoneType"),
        ({"assignments": [[0, 1]], "provenance": {"0": "leftover", "1": ["x"]}},
         r"provenance\.1: .* list"),
        ([[0]], "top level"),
    ], ids=["string-id", "float-id", "bool-id", "row-not-list",
            "provenance-key", "negative-key", "leading-zero", "leading-zero-twin",
            "double-zero", "key-beyond-digit-limit", "int-tag", "null-tag", "list-tag",
            "not-an-object"])
    def test_malformed(self, tmp_path, payload, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=field):
            sio.read_partition(path)


@pytest.mark.parametrize("read", [sio.read_scenario, sio.read_partition],
                         ids=["scenario", "partition"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"[" * 200_000, "JSON nested too deeply to read"),
], ids=["not-utf8", "too-deep"])
def test_unreadable_file_is_a_format_error(tmp_path, read, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioFormatError, match=message) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: ")


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

    @pytest.mark.parametrize("reader, header", [
        (sio.read_trace, "pass,rotation,sector,task_id,start_offset,duration"),
        (sio.read_load_report, "sector,absolute_load,target")], ids=["trace", "loads"])
    def test_missing_column(self, tmp_path, reader, header):
        path = tmp_path / "short.csv"
        path.write_text(header + "\r\n" + ",".join(["0"] * 6) + "\r\n", encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=re.escape(f"{path}: row 1: missing column")):
            reader(path)

    @pytest.mark.parametrize("reader, text", [
        (sio.read_trace, "pass,rotation,sector,task_id,start_offset,duration,timestamp\r\n"
                         "0,0,0,1,0.0,1.0,0.0\r\n1,0,1,x,0.0,1.0,25.0\r\n"),
        (sio.read_trace, "pass,rotation,sector,task_id,start_offset,duration,timestamp\r\n"
                         "0,0,0,1,0.0,1.0,0.0\r\n1,0,1,2,0.0\r\n"),
        (sio.read_load_report, "sector,absolute_load,target,relative_load\r\n"
                               "0,1.0,1.0,1.0\r\n1,1.0,one,1.0\r\n"),
        (sio.read_load_report, "sector,absolute_load,target,relative_load\r\n"
                               "0,1.0,1.0,1.0\r\n1,1.0\r\n"),
        # A cell past csv.field_size_limit() is refused by the csv reader itself.
        (sio.read_trace, "pass,rotation,sector,task_id,start_offset,duration,timestamp\r\n"
                         "0,0,0,1,0.0,1.0,0.0\r\n1,0,1,2,0.0,1.0," + "1" * 200_000 + "\r\n")],
        ids=["trace-bad-cell", "trace-short-row", "loads-bad-cell", "loads-short-row",
             "trace-oversized-cell"])
    def test_bad_cell(self, tmp_path, reader, text):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=re.escape(f"{path}: row 2: ")):
            reader(path)

    def test_infinite_relative_load_round_trips(self, tmp_path):
        from conftest import scenario_from

        s = scenario_from(2, 1, 1.0, (0.0, 4.0), [(0, 1.0)])
        rep = load_report(s, broadside_baseline(s))
        path = tmp_path / "inf.csv"
        sio.write_load_report(rep, path)
        rows = sio.read_load_report(path)
        assert math.isinf(rows[0][3])
