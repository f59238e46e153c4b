"""The CSV and JSON writers pinned byte for byte to their references.

The writers in ``sectorsched.io`` format each row or object with an
f-string; the references are the versions they replaced: ``csv.writer``
for the CSV files below, ``json.dumps(payload, indent=2)`` for the scenario
and partition files (in ``conftest``, shared with the property tests).
Both must write the same bytes for every trace, revisit table, load report,
comparison table, scenario and partition, including overfilled traces, N=1,
an empty trace, no tasks, int-valued numbers, float subclasses, tags outside
``PROVENANCE_TAGS`` and floats whose ``repr`` uses an exponent.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    POLICY_EDF,
    POLICY_PARTITION,
    PROVENANCE_LEFTOVER,
    Scenario,
    SchedulePartition,
    SurveillanceTask,
    broadside_baseline,
    equalize,
    generate,
    load_report,
    revisit_stats,
    simulate,
)
from sectorsched import io as sio
from sectorsched.simulate import ExecutionRecord, RevisitStats, SimulationTrace, TaskRevisit
from conftest import partition_payload, reference_json, scenario_from, scenario_payload


def reference_write_load_report(report, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sector", "absolute_load", "target", "relative_load"])
        for i in range(len(report.absolute_load)):
            writer.writerow([i, repr(float(report.absolute_load[i])),
                             repr(float(report.target[i])),
                             repr(float(report.relative_load[i]))])


def reference_write_trace(trace, scenario, path):
    by_id = scenario.task_by_id()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pass", "rotation", "sector", "task_id",
                         "start_offset", "duration", "timestamp"])
        for rec in trace.records:
            writer.writerow([rec.pass_index, rec.pass_index // scenario.n_sectors, rec.sector,
                             rec.task_id, repr(rec.start_offset),
                             repr(by_id[rec.task_id].duration), repr(rec.timestamp)])


def reference_write_revisit_stats(stats, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["task_id", "home_sector", "exec_sector",
                         "interval_s", "interval_rot"])
        for tr in stats.per_task:
            writer.writerow([tr.task_id, tr.home_sector, tr.exec_sector,
                             repr(tr.max_interval_s), repr(tr.max_interval_rot)])


def reference_write_comparison(rows, path, fields):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in fields])


def reference_write_scenario(scenario, path):
    Path(path).write_text(reference_json(scenario_payload(scenario)), encoding="utf-8")


def reference_write_partition(partition, path):
    Path(path).write_text(reference_json(partition_payload(partition)), encoding="utf-8")


def _generated(n, fov, tasks, resources, seed, dead=0):
    s = generate(GenParams(n_sectors=n, fov_half_width=fov, tasks_per_sector=tasks,
                           duration=(0.5, 3.0), resources=resources, seed=seed))
    res = list(s.resources)
    for j in range(dead):
        res[(seed + 3 * j) % n] = 0.0
    return Scenario(n_sectors=n, fov_half_width=fov, dt=s.dt,
                    resources=tuple(res), tasks=s.tasks)


# Exponent reprs: durations of 1e-05 s and below, a 1e+16 s dt, so that
# durations, offsets and timestamps all print as ``1e-05`` or ``...e+16``.
TINY = scenario_from(3, 1, 1e16, (2e-05, 1e-05, 3e-06),
                     [(0, 1e-05), (0, 2.5e-06), (1, 1e-05), (2, 3e-06), (2, 7e-07)])

SCENARIOS = {
    "n30-fov5": _generated(30, 5, (5, 15), (5.0, 20.0), seed=1),
    "n30-fov1": _generated(30, 1, (5, 15), (5.0, 20.0), seed=2),
    "n12-dead": _generated(12, 2, (0, 4), (1.0, 6.0), seed=3, dead=3),
    "n7-overfill": _generated(7, 3, (1, 4), (0.2, 1.0), seed=4),
    "n1": _generated(1, 0, (2, 6), (2.0, 6.0), seed=5),
    "n1-overfill": _generated(1, 3, (1, 3), (0.2, 1.0), seed=6),
    "empty": _generated(5, 1, (0, 0), (1.0, 4.0), seed=7),
    "exponent": TINY,
}




class OddFloat(float):
    """A float whose ``repr`` and ``str`` are not its number's."""

    def __repr__(self):
        return "odd"

    __str__ = __repr__


class OddInt(int):
    """An int whose ``repr`` and ``str`` are not its number's."""

    def __repr__(self):
        return "odd"

    __str__ = __repr__


# Numbers that ``json`` spells by ``int.__repr__`` or ``float.__repr__``, not
# by the value's own ``repr``: ints where the scenario allows a float, and
# number subclasses.  Resources are floats in every scenario.
INT_VALUED = Scenario(n_sectors=4, fov_half_width=1, dt=25, resources=(3, 2.0, 0, 1e-05),
                      tasks=(SurveillanceTask(0, 0, 0, 1), SurveillanceTask(1, 3, -3, 2),
                             SurveillanceTask(7, 1.5, 0.25, 1e-05)))
SUBCLASSED = Scenario(n_sectors=3, fov_half_width=1, dt=OddFloat(2.5), resources=(1.0,) * 3,
                      tasks=(SurveillanceTask(0, OddFloat(0.5), OddFloat(-1.0), OddFloat(1e-05)),
                             SurveillanceTask(1, OddInt(2), OddInt(1), OddInt(3))))

JSON_SCENARIOS = {**SCENARIOS, "int-valued": INT_VALUED, "subclassed": SUBCLASSED,
                  "int-dt-subclass": Scenario(n_sectors=1, fov_half_width=0, dt=OddInt(4),
                                              resources=(2.0,))}

# Partitions no scenario above yields: no sectors, sectors with no tasks and
# no provenance, and tags outside PROVENANCE_TAGS, one needing JSON escapes,
# in a dict not sorted by id.
PARTITIONS = {
    "no-sectors": SchedulePartition(assignments=(), provenance={}),
    "empty-sectors": SchedulePartition(assignments=((), (), ()), provenance={}),
    "partly-tagged": SchedulePartition(assignments=((), (3, 5), ()), provenance={5: "own-sector"}),
    "foreign-tags": SchedulePartition(
        assignments=((0, 2, 10), (), (1,)),
        provenance={10: "hand placed", 2: 'quote " slash \\ \u00e9 \n',
                    0: PROVENANCE_LEFTOVER, 1: ""}),
}


def _runs(scenario):
    """Traces of the three CLI policies."""
    return {"greedy": simulate(scenario, POLICY_PARTITION, equalize(scenario), cycles=3),
            "broadside": simulate(scenario, POLICY_PARTITION,
                                  broadside_baseline(scenario), cycles=3),
            "edf": simulate(scenario, POLICY_EDF, cycles=3)}


def _same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "ours", tmp_path / "reference"
    write(*args, ours)
    reference(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", SCENARIOS)
def test_trace_and_revisit_writers_match_csv_writer(tmp_path, name):
    scenario = SCENARIOS[name]
    for trace in _runs(scenario).values():
        _same_bytes(tmp_path, sio.write_trace, reference_write_trace, trace, scenario)
        _same_bytes(tmp_path, sio.write_revisit_stats, reference_write_revisit_stats,
                    revisit_stats(trace, scenario))


@pytest.mark.parametrize("name", SCENARIOS)
def test_load_report_writer_matches_csv_writer(tmp_path, name):
    scenario = SCENARIOS[name]
    _same_bytes(tmp_path, sio.write_load_report, reference_write_load_report,
                load_report(scenario, broadside_baseline(scenario)))


def test_cases_reach_what_they_claim(tmp_path):
    runs = {name: _runs(s) for name, s in SCENARIOS.items()}
    for name in ("n7-overfill", "n1-overfill"):
        assert all(any(w.kind == "overfill" for w in t.warnings) for t in runs[name].values())
    assert all(t.records == () for t in runs["empty"].values())
    text = _same_bytes(tmp_path, sio.write_trace, reference_write_trace,
                       runs["exponent"]["edf"], TINY)
    assert "e-05" in text and "e-06" in text and "e+16" in text
    # A zero-target sector holding load reports an infinite relative load.
    report = load_report(SCENARIOS["n12-dead"], broadside_baseline(SCENARIOS["n12-dead"]))
    assert math.inf in report.relative_load
    text = _same_bytes(tmp_path, sio.write_load_report, reference_write_load_report, report)
    assert ",inf\r\n" in text


# Hand-built traces and revisit tables whose numbers the writers' repr
# caches must keep apart: 0.0 and -0.0, 3 and 3.0, a float subclass and its
# value, and passes whose records run in more than one sector.  Ids 0-2 have
# an int, a float and an OddFloat duration.
HAND = Scenario(n_sectors=4, fov_half_width=1, dt=10.0, resources=(5.0, 5.0, 5.0, 0.0),
                tasks=(SurveillanceTask(0, 0.5, 0.0, 3), SurveillanceTask(1, 2.0, 0.5, 3.0),
                       SurveillanceTask(2, 4.0, -0.5, OddFloat(1.5))))

HAND_TRACES = {
    "int-offsets": [(0, 0, 0, 0, 0), (1, 0, 0, 3, 3), (2, 0, 0, 3.0, 3.0), (0, 1, 1, 3, 13)],
    "signed-zeros": [(0, 0, 0, 0.0, 0.0), (1, 1, 1, -0.0, 10.0), (2, 1, 1, 0.0, -0.0),
                     (0, 2, 2, -0.0, 20.0), (1, 2, 2, 0, 20)],
    "odd-floats": [(0, 0, 0, 1.5, 1.5), (1, 0, 0, OddFloat(1.5), OddFloat(1.5)),
                   (2, 0, 0, 1.5, 4.5), (0, 1, 5, OddFloat(2.5), 52.5), (1, 1, 5, 2.5, 52.5)],
    "repeated-offsets": [(tid, p % 4, p, off, p * 10.0 + off)
                         for p in range(8) for tid, off in ((0, 0.0), (1, 3.0), (2, 6.25))],
    "one-pass-two-sectors": [(0, 0, 3, 0.0, 30.0), (1, 1, 3, 3.0, 33.0), (2, 0, 3, 6.0, 36.0),
                             (0, 0, 4, 0.0, 40.0), (1, 3, 4, 1e-05, 40.00001)],
}

HAND_REVISITS = {
    "int-intervals": [(0, 0, 0, 3, 3), (1, 1, 1, 3.0, 3.0), (2, 2, 2, 3, 3.0)],
    "signed-zeros": [(0, 0, 0, 0.0, 0.0), (1, 1, 1, -0.0, -0.0), (2, 2, 2, 0.0, -0.0),
                     (3, 3, 3, 2.5, 0.0), (4, 0, 0, 2.5, -0.0)],
    "odd-floats": [(0, 0, 0, 2.5, 0.25), (1, 1, 1, OddFloat(2.5), 0.25),
                   (2, 2, 2, 2.5, OddFloat(0.25))],
    "repeated": [(tid, tid % 4, (tid + 1) % 4, 40.0, 1.0) for tid in range(6)],
    "inf-nan": [(0, 0, 0, math.inf, math.inf), (1, 1, 1, math.nan, math.nan),
                (2, 2, 2, -math.inf, math.nan), (3, 3, 3, math.inf, math.inf)],
}


def hand_trace(records):
    """A trace of ``records``, five-field tuples, checked as it is built."""
    return SimulationTrace(records=[ExecutionRecord(*r) for r in records],
                           completion_pass=0, cycles_completed=1)


def hand_revisits(rows):
    """Revisit stats of ``rows``, five-field tuples; the summary figures are 0."""
    return RevisitStats(per_task=tuple(TaskRevisit(*row) for row in rows),
                        max_interval_s=0.0, max_interval_rot=0.0, mean_interval_s=0.0,
                        mean_interval_rot=0.0, per_sector_max_rot=())


@pytest.mark.parametrize("name", HAND_TRACES)
def test_trace_writer_matches_csv_writer_on_hand_built_records(tmp_path, name):
    trace = hand_trace(HAND_TRACES[name])
    _same_bytes(tmp_path, sio.write_trace, reference_write_trace, trace, HAND)


@pytest.mark.parametrize("name", HAND_REVISITS)
def test_revisit_writer_matches_csv_writer_on_hand_built_rows(tmp_path, name):
    stats = hand_revisits(HAND_REVISITS[name])
    _same_bytes(tmp_path, sio.write_revisit_stats, reference_write_revisit_stats, stats)


def test_trace_writer_refuses_a_foreign_task_before_opening_the_file(tmp_path):
    # The last record's task is not in the scenario; nothing is written.
    path = tmp_path / "t.csv"
    records = HAND_TRACES["repeated-offsets"] + [(7, 0, 8, 0.0, 80.0)]
    with pytest.raises(InvalidInputError, match="trace record of task 7, which is not in"):
        sio.write_trace(hand_trace(records), HAND, path)
    assert not path.exists()


def test_hand_built_cases_reach_what_they_claim(tmp_path):
    def trace_text(name):
        return _same_bytes(tmp_path, sio.write_trace, reference_write_trace,
                           hand_trace(HAND_TRACES[name]), HAND)

    assert trace_text("int-offsets").splitlines()[2:4] == ["0,0,0,1,3,3.0,3", "0,0,0,2,3.0,odd,3.0"]
    assert trace_text("signed-zeros").splitlines()[2:4] == ["1,0,1,1,-0.0,3.0,10.0",
                                                           "1,0,1,2,0.0,odd,-0.0"]
    assert trace_text("odd-floats").splitlines()[1:3] == ["0,0,0,0,1.5,3,1.5",
                                                         "0,0,0,1,odd,3.0,odd"]
    assert trace_text("one-pass-two-sectors").splitlines()[1:4] == [
        "3,0,0,0,0.0,3,30.0", "3,0,1,1,3.0,3.0,33.0", "3,0,0,2,6.0,odd,36.0"]
    text = _same_bytes(tmp_path, sio.write_revisit_stats, reference_write_revisit_stats,
                       hand_revisits(HAND_REVISITS["inf-nan"]))
    assert text.splitlines()[1:] == ["0,0,0,inf,inf", "1,1,1,nan,nan", "2,2,2,-inf,nan",
                                     "3,3,3,inf,inf"]


@pytest.mark.parametrize("rows", [
    [{"policy": "greedy", "max_relative_load": 1.25, "worst_revisit_rotations": 3.0,
      "completion_pass": 58},
     {"policy": "exact(limit)", "max_relative_load": math.inf,
      "worst_revisit_rotations": 1e-05, "completion_pass": -1}],
    [{"seed": 3, "fov": 1, "policy": "edf", "max_relative_load": math.nan,
      "worst_revisit_rotations": 2.5e+16, "completion_pass": 0}],
    [],
], ids=["comparison", "report-detail", "empty"])
@pytest.mark.parametrize("fields", [
    ("policy", "max_relative_load", "worst_revisit_rotations", "completion_pass"),
    ("fov", "policy", "runs", "mean_max_relative_load",
     "mean_worst_revisit_rotations", "mean_completion_pass"),
    ("seed", "fov", "policy", "max_relative_load", "worst_revisit_rotations",
     "completion_pass"),
], ids=["default-header", "summary-header", "detail-header"])
def test_comparison_writer_matches_csv_writer(tmp_path, rows, fields):
    # Rows whose keys are the fields, none included, are written as csv.writer
    # writes them; any other row is refused before the file is opened.
    if all(tuple(row) == fields for row in rows):
        _same_bytes(tmp_path, lambda r, p: sio.write_comparison(r, p, fields=fields),
                    lambda r, p: reference_write_comparison(r, p, fields), rows)
    else:
        with pytest.raises(InvalidInputError, match=r"rows\[0\] has the keys .*, not the fields"):
            sio.write_comparison(rows, tmp_path / "out", fields=fields)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, fields, where", [
    ([{"policy": "a,b", "x": "q\"\nz"}], ("policy", "x"), r"rows\[0\]: 'a,b'"),
    ([{"policy": "edf", "x": 'say "hi"'}], ("policy", "x"), r"rows\[0\]: 'say \"hi\"'"),
    ([{"policy": "edf", "x": "a\rb"}], ("policy", "x"), r"rows\[0\]: 'a\\rb'"),
    ([{"policy": "edf", "x,y": 1}], ("policy", "x,y"), r"fields: 'x,y'"),
], ids=["comma-and-line-break", "quote", "carriage-return", "field-name"])
def test_comparison_csv_refuses_a_cell_it_would_have_to_quote(tmp_path, rows, fields, where):
    # Unquoted, "a,b" and "q\"\nz" read back as three rows of 2, 3 and 1
    # cells; the JSON form holds any string.
    path = tmp_path / "cmp.csv"
    with pytest.raises(InvalidInputError, match=where + " holds a comma, quote or line break"):
        sio.write_comparison(rows, path, fields=fields)
    assert not path.exists()
    sio.write_comparison(rows, tmp_path / "cmp.json", fmt="json", fields=fields)
    assert json.loads((tmp_path / "cmp.json").read_text(encoding="utf-8")) == rows


@pytest.mark.parametrize("name", JSON_SCENARIOS)
def test_scenario_and_partition_writers_match_json_dumps(tmp_path, name):
    scenario = JSON_SCENARIOS[name]
    _same_bytes(tmp_path, sio.write_scenario, reference_write_scenario, scenario)
    for partition in (equalize(scenario), broadside_baseline(scenario)):
        _same_bytes(tmp_path, sio.write_partition, reference_write_partition, partition)


@pytest.mark.parametrize("name", PARTITIONS)
def test_partition_writer_matches_json_dumps(tmp_path, name):
    _same_bytes(tmp_path, sio.write_partition, reference_write_partition, PARTITIONS[name])


def test_json_cases_reach_what_they_claim(tmp_path):
    def scenario_text(name):
        return _same_bytes(tmp_path, sio.write_scenario, reference_write_scenario,
                           JSON_SCENARIOS[name])

    def partition_text(partition):
        return _same_bytes(tmp_path, sio.write_partition, reference_write_partition, partition)

    assert '"tasks": []' in scenario_text("empty")
    assert partition_text(equalize(SCENARIOS["empty"])).endswith(
        '  ],\n  "provenance": {}\n}\n')
    text = scenario_text("exponent")
    assert '"dt": 1e+16,' in text and '"resources": [\n    2e-05,' in text
    assert '"duration": 1e-05\n' in text
    text = scenario_text("int-valued")
    assert '"dt": 25,' in text and '"phi": 0,' in text and '"duration": 1\n' in text
    text = scenario_text("subclassed")
    assert "odd" not in text and '"dt": 2.5,' in text and '"duration": 3\n' in text
    assert '"dt": 4,' in scenario_text("int-dt-subclass")
    assert len(SCENARIOS["n1"].resources) == 1 and SCENARIOS["n1"].tasks
    assert partition_text(PARTITIONS["no-sectors"]) == \
        '{\n  "assignments": [],\n  "provenance": {}\n}\n'
    assert '\\u00e9' in partition_text(PARTITIONS["foreign-tags"])
