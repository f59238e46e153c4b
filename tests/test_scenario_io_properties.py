"""Property tests of the scenario JSON format.

``read_scenario(write_scenario(s)) == s`` on generated scenarios, also when
integer-valued numbers are written as JSON integers; ``write_scenario`` and
``write_partition`` write the bytes ``json.dumps(indent=2)`` writes; and a
single malformed field raises only the package's format error, naming the
field's parent.

Needs hypothesis; the module is skipped where it is not installed.
"""

import contextlib
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    InfeasibleScenarioError,
    Scenario,
    ScenarioFormatError,
    SurveillanceTask,
    broadside_baseline,
    equalize,
)
from sectorsched import io as sio  # noqa: E402
from conftest import partition_payload, reference_json, scenario_payload  # noqa: E402

HUGE = 10 ** 400  # a JSON integer beyond float range


def _numbers(lo, hi, **kw):
    """Floats in [lo, hi], integer-valued ones among them."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 12))
    resources = draw(st.lists(_numbers(0.0, 50.0), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 10 ** 6), unique=True,
                        max_size=8 if any(resources) else 0))
    tasks = tuple(
        SurveillanceTask(tid, draw(_numbers(0.0, math.tau, exclude_max=True)),
                         draw(_numbers(-math.pi, math.pi)),
                         draw(_numbers(1e-6, 30.0)))
        for tid in ids)
    return Scenario(n_sectors=n, fov_half_width=draw(st.integers(0, n + 1)),
                    dt=draw(_numbers(1e-3, 100.0)), resources=tuple(resources),
                    tasks=tasks)


def _as_ints(value):
    """The JSON payload with every integer-valued float written as an integer."""
    if isinstance(value, dict):
        return {k: _as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_ints(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class TestRoundTrip:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenarios())
    def test_read_write_identity(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("rt") / "s.json"
        sio.write_scenario(s, path)
        assert sio.read_scenario(path) == s

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenarios())
    def test_integer_valued_numbers(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("ints") / "s.json"
        sio.write_scenario(s, path)
        payload = _as_ints(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(payload), encoding="utf-8")
        back = sio.read_scenario(path)
        assert back == s
        numbers = [back.dt, *back.resources]
        for t in back.tasks:
            numbers += [t.phi, t.theta, t.duration]
        assert all(type(x) is float for x in numbers)


class TestWriterBytes:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenarios())
    def test_json_dumps_bytes(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("bytes") / "out.json"
        sio.write_scenario(s, path)
        assert path.read_bytes() == reference_json(scenario_payload(s)).encode("utf-8")
        partitions = [broadside_baseline(s)]
        with contextlib.suppress(InfeasibleScenarioError):  # a task with no live sector
            partitions.append(equalize(s))
        for partition in partitions:
            sio.write_partition(partition, path)
            assert path.read_bytes() == \
                reference_json(partition_payload(partition)).encode("utf-8")


# A single task field broken: its key dropped, a value of the wrong JSON
# type or an integer beyond float range, or the whole task not an object.
@st.composite
def task_mutations(draw):
    """(payload, index of the broken task, whether only its id is huge)."""
    payload = scenario_payload(draw(scenarios().filter(lambda s: s.tasks)))
    k = draw(st.integers(0, len(payload["tasks"]) - 1))
    kind = draw(st.sampled_from(["drop", "value", "not-an-object"]))
    if kind == "not-an-object":
        payload["tasks"][k] = draw(st.sampled_from([5, 1.5, "task", None, True, []]))
        return payload, k, False
    key = draw(st.sampled_from(["id", "phi", "theta", "duration"]))
    if kind == "drop":
        del payload["tasks"][k][key]
        return payload, k, False
    value = draw(st.sampled_from([True, "5", None, HUGE]))
    payload["tasks"][k][key] = value
    return payload, k, key == "id" and value == HUGE


@st.composite
def scenario_mutations(draw):
    """(payload with one top-level field broken, the path the error names)."""
    payload = scenario_payload(draw(scenarios()))
    key = draw(st.sampled_from(["n_sectors", "fov_half_width", "dt", "resources",
                                "tasks"]))
    if draw(st.booleans()):
        del payload[key]
        return payload, "scenario"
    if key == "resources":
        i = draw(st.integers(0, len(payload["resources"]) - 1))
        payload["resources"][i] = draw(st.sampled_from([True, "5", None, HUGE]))
        return payload, f"scenario.resources[{i}]"
    payload[key] = draw(st.sampled_from([True, "5", None, {}]))
    return payload, f"scenario.{key}"


def _read(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("bad") / "s.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return sio.read_scenario(path)


class TestMalformedFields:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(task_mutations())
    def test_task_field(self, tmp_path_factory, case):
        payload, k, huge_id = case
        if huge_id:
            # An id is any non-negative integer, however long.
            assert _read(tmp_path_factory, payload).tasks[k].id == HUGE
            return
        with pytest.raises(ScenarioFormatError) as info:
            _read(tmp_path_factory, payload)
        assert str(info.value).startswith(f"tasks[{k}]")

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenario_mutations())
    def test_scenario_field(self, tmp_path_factory, case):
        payload, where = case
        with pytest.raises(ScenarioFormatError) as info:
            _read(tmp_path_factory, payload)
        assert str(info.value).startswith(where)
