import copy
import hashlib
import importlib
import itertools
import json
import math
import pickle
import re
from fractions import Fraction

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    ScenarioFormatError,
    ScenarioValidationError,
    SurveillanceTask,
    Xorshift64Star,
    bin_packing_reduce,
    broadside_baseline,
    equalize,
    generate,
    load_report,
)
from sectorsched import io as sio
from sectorsched.model import fov_offsets, validate_scenario
from sectorsched.simulate import POLICY_PARTITION, revisit_stats, simulate
from conftest import home_sector


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

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_half_used_generator_duplicates_with_its_state(self, duplicate):
        r = Xorshift64Star(42)
        r.next_u64()
        twin = duplicate(r)
        assert [twin.next_u64() for _ in range(2)] == [10378725325292465923, 8967075514996744559]
        assert [r.next_u64() for _ in range(2)] == [10378725325292465923, 8967075514996744559]

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
        # The largest draw, 1 - 2**-53 (the top 53 bits of the output
        # 2**64 - 1), puts (N - 1 + u) * 2*pi/N at 2*pi after rounding for
        # N = 4; the generator clamps it into sector N - 1.
        module = importlib.import_module("sectorsched.generate")  # the package's name is the function
        monkeypatch.setattr(module, "_outputs", lambda state: itertools.repeat(2 ** 64 - 1))
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
            assert s.home[t.id] == home_sector(t.phi, 12)
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

    @pytest.mark.parametrize("knobs", [
        {"duration": (2.0 ** -65, 1.0)}, {"duration": (1.0, 2.0 ** 65)},
        {"resources": (2.0 ** -65, 1.0)}, {"resources": (1.0, 2.0 ** 65)},
        {"resources": (0.0, 2.0 ** -12)},
        {"resources": (1.0, 2.0), "hotspots": ((0, 2.0 ** 64, 1.0),)},
        {"resources": (1.0, 2.0), "hotspots": ((0, 2.0 ** -65, 1.0),)}],
        ids=["d-lo", "d-hi", "r-lo", "r-hi", "r-least-draw", "mult-hi", "mult-lo"])
    def test_out_of_domain_range_is_refused(self, knobs):
        # From (0, 2**-12) the least positive draw is 2**-12 * 2**-53 = 2**-65.
        with pytest.raises(InvalidInputError, match="range"):
            GenParams(**knobs)

    @pytest.mark.parametrize("knobs", [
        {"duration": (2.0 ** -64, 2.0 ** 64), "resources": (2.0 ** -64, 2.0 ** 64)},
        {"resources": (0.0, 2.0 ** -11)},
        {"resources": (1.0, 2.0), "hotspots": ((0, 0.0, 1.0), (1, 2.0 ** 63, 1.0))},
        {"n_sectors": 1, "resources": (2.0 ** 6, 2.0 ** 7), "hotspots": ((0, 2.0 ** -70, 1.0),)}],
        ids=["widest", "r-least-draw", "dead-and-hi", "all-hot"])
    def test_domain_edge_range_generates(self, knobs):
        # generate builds only scenarios that Scenario accepts.
        knobs = {"n_sectors": 4, "tasks_per_sector": (1, 3), **knobs}
        for seed in range(20):
            assert validate_scenario(generate(GenParams(seed=seed, **knobs))) == []

    @pytest.mark.parametrize("knobs", [
        {"resources": (0.0, 0.0)},
        {"resources": (0, 0), "tasks_per_sector": (0, 1)},
        {"n_sectors": 1, "hotspots": ((0, 0.0, 1.0),)},
        {"n_sectors": 2, "hotspots": ((0, 0.0, 1.0), (1, 0.0, 0.0))},
        {"n_sectors": 1, "tasks_per_sector": (0, 6), "hotspots": ((0, 0.0, 0.1),)}],
        ids=["zero-range", "int-zero-range", "one-dead-sector", "all-dead", "six-tenths"])
    def test_tasks_without_resources_are_refused(self, knobs):
        # generate would draw a task into a scenario with no resources, which
        # Scenario refuses; 6 x 0.1 rounds to one task.
        with pytest.raises(InvalidInputError, match="leave every sector 0 resources"):
            GenParams(**knobs)

    @pytest.mark.parametrize("knobs", [
        {"resources": (0.0, 0.0), "tasks_per_sector": (0, 0)},
        {"n_sectors": 1, "hotspots": ((0, 0.0, 0.0),)},
        {"n_sectors": 1, "tasks_per_sector": (0, 5), "hotspots": ((0, 0.0, 0.1),)},
        {"n_sectors": 2, "hotspots": ((0, 0.0, 1.0),)}],
        ids=["no-tasks", "dead-hotspot-without-tasks", "half-rounds-down", "one-live-sector"])
    def test_no_resources_without_tasks_generates(self, knobs):
        # 5 x 0.1 is 0.5, which round() takes to 0 tasks.
        for seed in range(5):
            assert validate_scenario(generate(GenParams(seed=seed, **knobs))) == []


# write_scenario bytes of generated scenarios, pinned so that a faster
# generator must draw every number exactly as before.  The corpus covers one
# sector and 360, a dead hotspot and a task multiplier of 2.5 (the round),
# int-valued ranges, no tasks at all, and negative and 64-bit seeds.
GENERATED_SHA256 = {
    "n1": (dict(n_sectors=1, fov_half_width=0, tasks_per_sector=(1, 1)),
           "792587685ca16fe80d8d900521b95faf258c4705d8adbdc9302f75c683ba823a"),
    "n360": (dict(n_sectors=360, fov_half_width=60, seed=1,
                  hotspots=((7, 0.5, 4.0), (200, 0.0, 1.0))),
             "f95e878d4e5cb7c5ab8b7f689c8cfcbe5f68d907ec592d9a8f1f30fae3a7a683"),
    "hot-dead-2.5": (dict(n_sectors=12, fov_half_width=2, seed=7,
                          hotspots=((3, 0.0, 2.5), (8, 1.5, 2.5))),
                     "e8118be7b413250b1bef713b47555a40aa21fccb0732b0f17ecd236f5813baed"),
    "int-ranges": (dict(n_sectors=8, fov_half_width=1, dt=25, seed=11,
                        resources=(4, 4), duration=(1, 3)),
                   "bb9e3086b11545a5369aac9b7aa1907325889e840232fb5f93da6553ffe4d231"),
    "no-tasks": (dict(n_sectors=5, fov_half_width=1, seed=3, tasks_per_sector=(0, 0)),
                 "8caee5fdc5187d1ad44fb230ebb6de0c2ccd27a20c41b656fa5ea789fad91797"),
    "seed-negative": (dict(seed=-12345),
                      "40d491c8392c068624803bdfe92c5f4dc353daa6ef041266ebb678f3a8972d9a"),
    "seed-2**64-1": (dict(seed=2 ** 64 - 1),
                     "69ca2f5fd39f2729876a38443036056319989161a5c06d5cb38057136283c6b7"),
    "seed--2**64": (dict(n_sectors=6, fov_half_width=1, seed=-2 ** 64),
                    "56670084a4ea5a24957530e6f57210bbfb0473958ce87452360bc45667a5f913"),
    "default": (dict(), "cf21965764496e7db498709e58f73b7507c8a473356d46329e3430245c9e660e"),
}
REDUCED_SHA256 = {
    "floats": (([1.5, 2.5, 3.0], [4.0, 3.0]),
               "388f0ffcef2dc8976d2104d44035e36880db94f108ae5aa06618528482f9baba"),
    "ints": (([1, 2, 3, 4, 5], [5, 5, 5]),
             "2a8a18a7ebf9062d3e5192bdf51eaa974e01b2f07c3a870f71e736229c8a8ac2"),
    "twelve": (([0.5 + k / 4 for k in range(12)], [4.0, 5.5, 6.0, 7.0, 4.5, 6.5]),
               "ca27a71154610cbb96297d22072598d233a255e0471563d9885f72e1ce153ab7"),
}


def written_sha256(scenario, tmp_path) -> str:
    path = tmp_path / "s.json"
    sio.write_scenario(scenario, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", GENERATED_SHA256)
def test_generated_scenario_bytes_are_pinned(name, tmp_path):
    knobs, digest = GENERATED_SHA256[name]
    assert written_sha256(generate(GenParams(**knobs)), tmp_path) == digest


@pytest.mark.parametrize("name", REDUCED_SHA256)
def test_reduced_scenario_bytes_are_pinned(name, tmp_path):
    (sizes, capacities), digest = REDUCED_SHA256[name]
    assert written_sha256(bin_packing_reduce(sizes, capacities), tmp_path) == digest


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


# read_scenario's refusal of each malformed task entry, type and message as
# recorded before task objects of an int id and three floats took a one-step
# path: any other entry must still meet the field checks in order.
GOOD_TASKS = ({"id": 0, "phi": 0.1, "theta": 0.0, "duration": 1.0},
              {"id": 1, "phi": 2.5, "theta": -1.0, "duration": 2.0},
              {"id": 2, "phi": 4.0, "theta": 1.0, "duration": 0.5})


def _without(position, key):
    tasks = [dict(t) for t in GOOD_TASKS]
    del tasks[position][key]
    return tasks


def _with_entry(entry):
    return [GOOD_TASKS[0], entry, GOOD_TASKS[2]]


TASK_PARITY = {
    **{f"missing-{key}-at-{pos}": (_without(pos, key), f"tasks[{pos}]: missing field {key!r}")
       for pos in range(3) for key in ("id", "phi", "theta", "duration")},
    "bool-id": (_with_entry({"id": True, "phi": 0.1, "theta": 0.0, "duration": 1.0}),
                "tasks[1].id: unexpected type bool"),
    "float-id": (_with_entry({"id": 1.0, "phi": 0.1, "theta": 0.0, "duration": 1.0}),
                 "tasks[1].id: unexpected type float"),
    "str-phi": (_with_entry({"id": 1, "phi": "0.1", "theta": 0.0, "duration": 1.0}),
                "tasks[1].phi: unexpected type str"),
    "null-phi": (_with_entry({"id": 1, "phi": None, "theta": 0.0, "duration": 1.0}),
                 "tasks[1].phi: unexpected type NoneType"),
    "bool-theta": (_with_entry({"id": 1, "phi": 0.1, "theta": False, "duration": 1.0}),
                   "tasks[1].theta: unexpected type bool"),
    "missing-id-before-str-phi": (_with_entry({"phi": "x", "theta": 0.0, "duration": 1.0}),
                                  "tasks[1]: missing field 'id'"),
    "str-phi-before-missing-duration": (_with_entry({"id": 1, "phi": "x", "theta": 0.0}),
                                        "tasks[1].phi: unexpected type str"),
    "huge-int-theta": (_with_entry({"id": 1, "phi": 0.1, "theta": 10 ** 400, "duration": 1.0}),
                       "tasks[1].theta: int too large to convert to float"),
    "list-entry": (_with_entry([1, 0.1, 0.0, 1.0]), "tasks[1]: expected an object"),
    "string-entry": (_with_entry("id"), "tasks[1]: expected an object"),
    "null-entry": (_with_entry(None), "tasks[1]: expected an object"),
    "phi-out-of-range": (_with_entry({"id": 1, "phi": 7.0, "theta": 0.0, "duration": 1.0}),
                         "tasks[1]: phi=7.0 outside [0, 2*pi)"),
    "int-phi-out-of-range": (_with_entry({"id": 1, "phi": 7, "theta": 0.0, "duration": 1.0}),
                             "tasks[1]: phi=7.0 outside [0, 2*pi)"),
}


def _scenario_file(tmp_path, tasks):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n_sectors": 3, "fov_half_width": 1, "dt": 5.0,
                                "resources": [1.0, 2.0, 3.0], "tasks": tasks}),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("name", TASK_PARITY)
def test_read_scenario_refuses_a_task_entry_as_before(tmp_path, name):
    tasks, message = TASK_PARITY[name]
    with pytest.raises(ScenarioFormatError) as info:
        sio.read_scenario(_scenario_file(tmp_path, tasks))
    assert type(info.value) is ScenarioFormatError and str(info.value) == message


def test_read_scenario_reads_int_numbers_as_floats(tmp_path):
    # An int phi, theta or duration reads back as a float; keys in any order
    # and keys beyond the four are accepted, as before.
    tasks = [{"duration": 2, "theta": -1, "phi": 1, "id": 0, "note": "x"},
             {"id": 1, "phi": 2.5, "theta": 0.25, "duration": 1.5}]
    scenario = sio.read_scenario(_scenario_file(tmp_path, tasks))
    assert scenario.tasks == (SurveillanceTask(0, 1.0, -1.0, 2.0),
                              SurveillanceTask(1, 2.5, 0.25, 1.5))
    assert all(type(x) is float for t in scenario.tasks for x in (t.phi, t.theta, t.duration))


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
