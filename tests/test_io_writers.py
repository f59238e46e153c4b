"""The CSV writers pinned byte for byte to ``csv.writer`` references.

The writers in ``sectorsched.io`` format each row with an f-string; the
references below are the ``csv.writer`` versions they replaced.  Both must
write the same bytes for every trace, revisit table, load report and
comparison table, including overfilled traces, N=1, an empty trace and
floats whose ``repr`` uses an exponent.
"""

import csv
import math

import pytest

from sectorsched import (
    GenParams,
    POLICY_EDF,
    POLICY_PARTITION,
    Scenario,
    broadside_baseline,
    equalize,
    generate,
    load_report,
    revisit_stats,
    simulate,
)
from sectorsched import io as sio
from conftest import scenario_from


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
        writer.writerow(list(rows[0].keys()) if rows else fields)
        for row in rows:
            writer.writerow([
                repr(v) if isinstance(v, float) else v for v in row.values()])


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


def _runs(scenario):
    """Traces of the three CLI policies."""
    return {"greedy": simulate(scenario, POLICY_PARTITION, equalize(scenario), cycles=3),
            "broadside": simulate(scenario, POLICY_PARTITION,
                                  broadside_baseline(scenario), cycles=3),
            "edf": simulate(scenario, POLICY_EDF, cycles=3)}


def _same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
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
], ids=["default-header", "summary-header"])
def test_comparison_writer_matches_csv_writer(tmp_path, rows, fields):
    _same_bytes(tmp_path, lambda r, p: sio.write_comparison(r, p, fields=fields),
                lambda r, p: reference_write_comparison(r, p, fields), rows)
