"""The argument contract of the public entry points, by example.

Every row is a call with one malformed argument: text, a bool, ``None``,
NaN, inf or an int beyond the float range where a number is due, a float
where an int is due.  Each must raise :class:`InvalidInputError`, never a
bare ``TypeError``/``ValueError``/``OverflowError`` and never a result.
Counts follow one rule (an ``int`` >= 1, or >= 0 for a half-width, within
the float range, never a bool) and pass times another (a number, positive
and finite).
"""

import dataclasses
import importlib
import math
import os

import pytest

from sectorsched import (
    ExecutionRecord,
    GenParams,
    InvalidInputError,
    Scenario,
    ScenarioFormatError,
    SchedulePartition,
    SimulationTrace,
    SurveillanceTask,
    Xorshift64Star,
    bin_packing_reduce,
    broadside_baseline,
    build_partition,
    check_partition,
    check_assignment,
    check_trace,
    equalize,
    exact_min_passes,
    load_report,
    maximal_subset,
    measure_resources,
    revisit_stats,
    sector_targets,
    simulate,
)
from sectorsched import io as sio

TASKS = [SurveillanceTask(0, 0.1, 0.0, 1.0), SurveillanceTask(1, 0.2, 0.0, 2.0)]


def scenario(resources):
    return Scenario(n_sectors=len(resources), fov_half_width=0, dt=1.0, resources=resources)


DESK = Scenario(n_sectors=1, fov_half_width=0, dt=1.0, resources=(5.0,), tasks=tuple(TASKS))
DESK_TRACE = simulate(DESK, "edf", cycles=2)
DESK_PARTITION = broadside_baseline(DESK)
# A record of a task the scenario does not hold.
FOREIGN_TRACE = SimulationTrace(records=(ExecutionRecord(7, 0, 0, 0.0, 0.0),),
                                completion_pass=0, cycles_completed=1)
# Records a trace refuses when it is built, each in place of DESK_TRACE's first.
UNREADABLE = {
    "records-None": None,
    "record-int": 5,
    "record-four-fields": (0, 0, 0, 0.0),
    "record-list": [0, 0, 0, 0.0, 0.0],
    "id-text": ("a", 0, 0, 0.0, 0.0),
    "id-bool": (True, 0, 0, 0.0, 0.0),
    "pass-float": (0, 0, 1.5, 0.0, 0.0),
    "sector-text": (0, "x", 0, 0.0, 0.0),
    "sector-float": (0, 0.0, 0, 0.0, 0.0),
    "offset-text": (0, 0, 0, "x", 0.0),
    "timestamp-None": (0, 0, 0, 0.0, None),
    "pass-huge": (0, 0, 10 ** 400, 0.0, 0.0),
    "offset-huge": (0, 0, 0, 10 ** 400, 0.0),
    "timestamp-huge": (0, 0, 0, 0.0, 10 ** 400),
}


def with_records(records):
    return dataclasses.replace(DESK_TRACE, records=records)


def unreadable_trace(name):
    record = UNREADABLE[name]
    return with_records(None if name == "records-None" else (record,) + DESK_TRACE.records[1:])


def with_stamps(stamp_of):
    """DESK_TRACE with each record's timestamp replaced by ``stamp_of(record)``."""
    return with_records(tuple(r._replace(timestamp=stamp_of(r)) for r in DESK_TRACE.records))


# Timestamps 0.0, then 1.7e308, for both tasks: the intervals sum past floats.
OVERFLOWING_TRACE = with_stamps(lambda r: 1.7e308 * r.pass_index)
# Task 0 illuminated at inf twice: its interval is inf - inf, a NaN.
INFINITE_TRACE = with_stamps(lambda r: math.inf if r.task_id == 0 else r.timestamp)

# (entry point, positional arguments, keyword arguments)
CASES = {
    # A pass time is positive and finite wherever it is taken.
    "GenParams-dt-nan": (GenParams, (), {"dt": math.nan}),
    "GenParams-dt-inf": (GenParams, (), {"dt": math.inf}),
    "measure_resources-dt-text": (measure_resources, ([1.0], 1, "x", 0.5), {}),
    # A task's azimuth, and the other numbers of the resource helpers.
    "SurveillanceTask-phi-text": (SurveillanceTask, (0, "x", 0.0, 1.0), {}),
    "measure_resources-alpha-text": (measure_resources, ([1.0], 1, 1.0, "x"), {}),
    "measure_resources-usage-text": (measure_resources, (["x"], 1, 1.0, 0.5), {}),
    "uniform_range-ends-text": (lambda lo, hi: Xorshift64Star(1).uniform_range(lo, hi),
                                ("a", "b"), {}),
    # A generator range is finite, ordered and within the float range.
    "uniform_range-end-nan": (Xorshift64Star(1).uniform_range, (math.nan, 1.0), {}),
    "uniform_range-end-inf": (Xorshift64Star(1).uniform_range, (0.0, math.inf), {}),
    "uniform_range-reversed": (Xorshift64Star(1).uniform_range, (5.0, 1.0), {}),
    "uniform_range-too-wide": (Xorshift64Star(1).uniform_range, (-1e308, 1e308), {}),
    "uniform_range-hi-bool": (Xorshift64Star(1).uniform_range, (0.0, True), {}),
    # A resource is a number, as dt, phi, theta and duration are.
    "Scenario-resource-text": (scenario, (("5",),), {}),
    "Scenario-resource-bool": (scenario, ((True,),), {}),
    "Scenario-resource-None": (scenario, ((None,),), {}),
    "Scenario-resource-huge": (scenario, ((10 ** 400,),), {}),
    # Bin packing sizes and capacities.
    "bin_packing-capacity-text": (bin_packing_reduce, ([1.0], ["7"]), {}),
    "bin_packing-size-text": (bin_packing_reduce, (["x"], [5.0]), {}),
    "bin_packing-size-numeric-text": (bin_packing_reduce, (["3"], [5.0]), {}),
    "bin_packing-size-bool": (bin_packing_reduce, ([True], [5.0]), {}),
    # The first-fit fill's budget and prior use.
    "maximal_subset-budget-text": (maximal_subset, (TASKS, "x"), {}),
    "maximal_subset-budget-nan": (maximal_subset, (TASKS, math.nan), {}),
    "maximal_subset-used-nan": (maximal_subset, (TASKS, 5.0, math.nan), {}),
    # Sequences and mappings are what the helpers read them as.
    "maximal_subset-candidates-ints": (maximal_subset, ([1, 2], 3.0), {}),
    "maximal_subset-candidates-None": (maximal_subset, (None, 3.0), {}),
    "measure_resources-usage-int": (measure_resources, (5, 3, 1.0, 0.5), {}),
    "measure_resources-usage-None": (measure_resources, (None, 3, 1.0, 0.5), {}),
    "build_partition-sectors-list": (build_partition, (3, [1, 2]), {}),
    "build_partition-provenance-None": (build_partition, (3, {0: 1}, None), {}),
    # A partition checks its ids and tags when it is built.
    "SchedulePartition-float-id": (SchedulePartition, (((1.5,),), {}), {}),
    "SchedulePartition-bool-id": (SchedulePartition, (((True,),), {}), {}),
    "SchedulePartition-negative-id": (SchedulePartition, (((-1,),), {}), {}),
    "SchedulePartition-list-row": (SchedulePartition, (([0],), {}), {}),
    "SchedulePartition-bool-tagged-id": (SchedulePartition, (((1,),), {True: "leftover"}), {}),
    "SchedulePartition-int-tag": (SchedulePartition, (((0,),), {0: 5}), {}),
    "SchedulePartition-assignments-None": (SchedulePartition, (),
                                           {"assignments": None, "provenance": {}}),
    "SchedulePartition-provenance-None": (SchedulePartition, (),
                                          {"assignments": (), "provenance": None}),
    # A partition argument is a SchedulePartition; check_partition reports
    # anything else, and the entry points that run it refuse.
    "load_report-partition-None": (load_report, (DESK, None), {}),
    "simulate-partition-text": (simulate, (DESK, "partition", "x"), {}),
    # A seed is an int.
    "Xorshift64Star-seed-numeric-text": (Xorshift64Star, ("12",), {}),
    "Xorshift64Star-seed-float": (Xorshift64Star, (1.5,), {}),
    "Xorshift64Star-seed-text": (Xorshift64Star, ("x",), {}),
    # A generator range entry is a number, not a bool or an int beyond floats.
    "GenParams-duration-huge": (GenParams, (), {"duration": (0.5, 10 ** 400)}),
    "GenParams-resources-bool": (GenParams, (), {"resources": (True, 2.0)}),
    "GenParams-multiplier-huge": (GenParams, (), {"hotspots": ((0, 10 ** 400, 1.0),)}),
    # A generator range is finite.
    "GenParams-duration-nan": (GenParams, (), {"duration": (math.nan, 3.0)}),
    "GenParams-duration-inf": (GenParams, (), {"duration": (0.5, math.inf)}),
    "GenParams-resources-nan": (GenParams, (), {"resources": (math.nan, 2.0)}),
    "GenParams-resources-inf": (GenParams, (), {"resources": (1.0, math.inf)}),
    # A hotspot sector is listed once: a second entry would replace the first.
    "GenParams-hotspot-twice": (GenParams, (), {"hotspots": ((1, 0.5, 2.0), (1, 0.0, 1.0))}),
    # A count is within the float range.
    "Scenario-n-huge": (Scenario, (10 ** 400, 0, 1.0, ()), {}),
    "measure_resources-n-huge": (measure_resources, ([1.0], 10 ** 400, 1.0, 0.5), {}),
    "measure_resources-n-past-maxsize": (measure_resources, ([1.0], 10 ** 20, 1.0, 0.5), {}),
    "GenParams-task-count-huge": (GenParams, (), {"tasks_per_sector": (0, 10 ** 400)}),
    # A generator request is small enough to make: generate builds each
    # sector and task, so a finite but huge one would never end.
    "GenParams-task-count-finite-huge": (GenParams, (), {"tasks_per_sector": (0, 10 ** 15)}),
    "GenParams-n-finite-huge": (GenParams, (), {"n_sectors": 10 ** 15}),
    "GenParams-task-multiplier-finite-huge": (GenParams, (), {"hotspots": ((0, 1.0, 1e300),)}),
    # A partition's sector is an int in [0, n_sectors).
    "build_partition-sector-negative": (build_partition, (2, {0: -1}), {}),
    "build_partition-sector-bool": (build_partition, (2, {0: True}), {}),
    "build_partition-sector-past-n": (build_partition, (2, {0: 5}), {}),
    "build_partition-sector-float": (build_partition, (2, {0: 1.0}), {}),
    "build_partition-n-float": (build_partition, (2.0, {0: 1}), {}),
    # Task ids are ints, also where the rows are sorted.
    "build_partition-ids-mixed": (build_partition, (2, {"a": 0, 1: 0}), {}),
    # Sequences are iterable, and a scenario's tasks are tasks.
    "bin_packing-sizes-not-iterable": (bin_packing_reduce, (5, [1.0]), {}),
    "bin_packing-capacities-not-iterable": (bin_packing_reduce, ([1.0], 5), {}),
    "Scenario-resources-not-iterable": (Scenario, (1, 0, 1.0, 5), {}),
    "Scenario-tasks-not-iterable": (Scenario, (1, 0, 1.0, (5.0,), 5), {}),
    "Scenario-task-not-a-task": (Scenario, (1, 0, 1.0, (5.0,), (5,)), {}),
    # The search's limits are a SearchLimits, not a bare node budget.
    "exact_min_passes-limits-int": (exact_min_passes, (DESK, 5000), {}),
    "exact_min_passes-limits-None": (exact_min_passes, (DESK, None), {}),
    "exact_min_passes-limits-text": (exact_min_passes, (DESK, "x"), {}),
    # A trace argument is a SimulationTrace.
    "revisit_stats-trace-None": (revisit_stats, (None, DESK), {}),
    "revisit_stats-trace-records": (revisit_stats, ((), DESK), {}),
    # A simulation keeps its records, so cycles x tasks is bounded.
    "simulate-cycles-finite-huge": (simulate, (DESK, "edf"), {"cycles": 10 ** 20}),
    # A scenario argument is a Scenario; the validators report anything else.
    "exact_min_passes-scenario-None": (exact_min_passes, (None,), {}),
    "simulate-scenario-None": (simulate, (None, "edf"), {}),
    "equalize-scenario-None": (equalize, (None,), {}),
    "load_report-scenario-None": (load_report, (None, DESK_PARTITION), {}),
    "revisit_stats-scenario-None": (revisit_stats, (DESK_TRACE, None), {}),
    "sector_targets-scenario-None": (sector_targets, (None,), {}),
    "broadside_baseline-scenario-None": (broadside_baseline, (None,), {}),
    "write_scenario-scenario-None": (sio.write_scenario, (None, os.devnull), {}),
    "write_trace-scenario-None": (sio.write_trace, (DESK_TRACE, None, os.devnull), {}),
    "write_trace-record-foreign-task": (sio.write_trace, (FOREIGN_TRACE, DESK, os.devnull), {}),
    # A trace checks its fields when it is built, so no reader is handed one
    # it cannot read: each of these calls raises where its trace is built.
    "revisit_stats-cycles-text": (lambda: revisit_stats(dataclasses.replace(
        DESK_TRACE, cycles_completed="2"), DESK), (), {}),
    "revisit_stats-cycles-None": (lambda: revisit_stats(dataclasses.replace(
        DESK_TRACE, cycles_completed=None), DESK), (), {}),
    "revisit_stats-cycles-float": (lambda: revisit_stats(dataclasses.replace(
        DESK_TRACE, cycles_completed=2.5), DESK), (), {}),
    "revisit_stats-cycles-nan": (lambda: revisit_stats(dataclasses.replace(
        DESK_TRACE, cycles_completed=math.nan), DESK), (), {}),
    "revisit_stats-timestamps-huge": (lambda: revisit_stats(with_stamps(
        lambda r: 10 ** 400 * (r.pass_index + 1) if r.task_id == 0 else r.timestamp), DESK),
        (), {}),
    "illumination-records-None": (lambda: unreadable_trace("records-None").illumination, (), {}),
    "illumination-record-int": (lambda: unreadable_trace("record-int").illumination, (), {}),
    "illumination-record-four-fields": (
        lambda: unreadable_trace("record-four-fields").illumination, (), {}),
    "n_passes-last-record-two-fields": (
        lambda: with_records(DESK_TRACE.records[:-1] + ((0, 0),)).n_passes, (), {}),
    "revisit_stats-records-None": (lambda: revisit_stats(unreadable_trace("records-None"), DESK),
                                   (), {}),
    "revisit_stats-record-int": (lambda: revisit_stats(unreadable_trace("record-int"), DESK),
                                 (), {}),
    "revisit_stats-record-four-fields": (
        lambda: revisit_stats(unreadable_trace("record-four-fields"), DESK), (), {}),
    "write_trace-records-None": (
        lambda: sio.write_trace(unreadable_trace("records-None"), DESK, os.devnull), (), {}),
    "write_trace-record-int": (
        lambda: sio.write_trace(unreadable_trace("record-int"), DESK, os.devnull), (), {}),
    "write_trace-record-four-fields": (
        lambda: sio.write_trace(unreadable_trace("record-four-fields"), DESK, os.devnull), (), {}),
    # A trace's counts are ints: cycles_completed >= 0, completion_pass any.
    "SimulationTrace-cycles-negative": (dataclasses.replace, (DESK_TRACE,),
                                        {"cycles_completed": -1}),
    "SimulationTrace-completion-pass-float": (dataclasses.replace, (DESK_TRACE,),
                                              {"completion_pass": 1.0}),
    "SimulationTrace-completion-pass-huge": (dataclasses.replace, (DESK_TRACE,),
                                             {"completion_pass": 10 ** 400}),
    # A record's fields are typed: no float pass, no str sector or offset,
    # and no int past the digit limit, whose repr a message must not hold.
    "SimulationTrace-last-pass-float": (with_records, (
        DESK_TRACE.records[:-1] + ((1, 0, 1.5, 1.0, 2.0),),), {}),
    "SimulationTrace-sector-text": (with_records, (
        DESK_TRACE.records[:-1] + ((1, "x", 1, 1.0, 2.0),),), {}),
    "SimulationTrace-sector-and-offset-text": (with_records, (
        ((0, "x", 0, "x", 0.0),) + DESK_TRACE.records[1:],), {}),
    "SimulationTrace-pass-past-the-digit-limit": (with_records, (
        ((0, 0, 10 ** 5000, 0.0, 0.0),) + DESK_TRACE.records[1:],), {}),
    # Intervals are finite and sum within the float range.
    "revisit_stats-intervals-sum-past-floats": (revisit_stats, (OVERFLOWING_TRACE, DESK), {}),
    "revisit_stats-timestamps-inf": (revisit_stats, (INFINITE_TRACE, DESK), {}),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_argument_is_an_invalid_input_error(name):
    entry, args, kwargs = CASES[name]
    with pytest.raises(InvalidInputError):
        entry(*args, **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: GenParams(dt=math.nan), "dt=nan must be positive and finite"),
    (lambda: Scenario(2.5, 0, 1.0, (1.0,)), "n_sectors=2.5 must be a positive integer"),
    (lambda: GenParams(fov_half_width=-1), "fov_half_width=-1 must be a non-negative integer"),
    (lambda: scenario((None,)), "resources[0]=None must be an int or a float"),
    (lambda: scenario((10 ** 400,)), "resources[0]: an int beyond the float range"),
    (lambda: GenParams(duration=(math.nan, 3.0)), "bad duration range (nan, 3.0)"),
    (lambda: GenParams(resources=(1.0, math.inf)), "bad resources range (1.0, inf)"),
    (lambda: GenParams(resources=(5.0, 1.0)), "bad resources range (5.0, 1.0)"),
    (lambda: GenParams(hotspots=((1, 0.5, 2.0), (1, 0.0, 1.0))), "hotspot sector 1 listed twice"),
    (lambda: measure_resources([1.0], 10 ** 20, 1.0, 0.5),
     "n_sectors=100000000000000000000 is more sectors than a list holds"),
    (lambda: exact_min_passes(DESK, 5000), "limits must be a SearchLimits, not int"),
    (lambda: GenParams(n_sectors=10 ** 15),
     "n_sectors=1000000000000000 exceeds MAX_GENERATED=1000000"),
    (lambda: build_partition(2, {0: True}), "task 0: sector True is not an integer in [0, 2)"),
    (lambda: build_partition(3, [1, 2]), "sector_of_task must be a mapping, not list"),
    (lambda: maximal_subset([1, 2], 3.0), "candidates[0]=1 is not a SurveillanceTask"),
    (lambda: maximal_subset(None, 3.0), "candidates must be iterable, not NoneType"),
    (lambda: Xorshift64Star(1).uniform_range("a", "b"), "lo='a' must be an int or a float"),
    (lambda: Xorshift64Star(1).uniform_range(0.0, True), "hi=True must be an int or a float"),
    (lambda: sio.write_comparison([1], os.devnull, fields=("policy",)),
     "rows[0]=1 is not a dict"),
    (lambda: sio.write_comparison([{"a": 1}, {"b": 2, "c": 3}], os.devnull, fields=("a",)),
     "rows[1] has the keys ('b', 'c'), not the fields ('a',)"),
    (lambda: build_partition(2, {"a": 0, 1: 0}),
     "sector_of_task: task ids must be non-negative integers"),
    (lambda: Xorshift64Star(1).uniform_range(5.0, 1.0),
     "range (5.0, 1.0) must be finite, ordered and at most the float range wide"),
    (lambda: bin_packing_reduce(5, [1.0]), "item sizes must be iterable, not int"),
    (lambda: Scenario(1, 0, 1.0, (5.0,), (5,)), "tasks[0]=5 is not a SurveillanceTask"),
    (lambda: revisit_stats(None, DESK), "expected a SimulationTrace, not NoneType"),
    (lambda: exact_min_passes(None), "expected a Scenario, not NoneType"),
    (lambda: simulate(DESK.tasks, "edf"), "expected a Scenario, not tuple"),
    (lambda: simulate(DESK, "edf", cycles=10 ** 20),
     "cycles=100000000000000000000 x 2 tasks exceeds MAX_RECORDS=2000000 records"),
    (lambda: sio.write_trace(FOREIGN_TRACE, DESK, os.devnull),
     "trace record of task 7, which is not in the scenario"),
    (lambda: sio.write_comparison([{"policy": "a,b"}], os.devnull, fields=("policy",)),
     "rows[0]: 'a,b' holds a comma, quote or line break, which this CSV writer does not quote"),
    (lambda: SimulationTrace(None, -1, 0), "records must be iterable, not NoneType"),
    (lambda: unreadable_trace("record-four-fields"), "records[0] is not a tuple of five fields"),
    (lambda: unreadable_trace("offset-text"), "records[0].start_offset='x' must be an int or a float"),
    (lambda: unreadable_trace("id-bool"), "records[0].task_id must be an int, not bool"),
    (lambda: with_records(((0, 0, 10 ** 5000, 0.0, 0.0),)),
     "records[0].pass_index: an int beyond the float range"),
    (lambda: dataclasses.replace(DESK_TRACE, cycles_completed="2"),
     "cycles_completed='2' must be a non-negative integer"),
    (lambda: dataclasses.replace(DESK_TRACE, cycles_completed=True),
     "cycles_completed=True must be a non-negative integer"),
    (lambda: dataclasses.replace(DESK_TRACE, completion_pass=None),
     "completion_pass must be an int, not NoneType"),
    (lambda: revisit_stats(simulate(DESK, "edf"), DESK),
     "revisit intervals need >= 2 completed cycles, trace has 1"),
    (lambda: revisit_stats(OVERFLOWING_TRACE, DESK),
     "revisit intervals are not finite or sum past the float range"),
])
def test_messages_name_the_argument(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("check, argument, problem", [
    (check_trace, None, ("trace", None, None, "expected a SimulationTrace, not NoneType")),
    (check_trace, (), ("trace", None, None, "expected a SimulationTrace, not tuple")),
    (check_assignment, None, "expected a mapping of task id to (sector, rotation), not NoneType"),
    (check_assignment, [], "expected a mapping of task id to (sector, rotation), not list"),
])
def test_validators_report_an_argument_of_the_wrong_type(check, argument, problem):
    assert check(DESK, argument) == [problem]


@pytest.mark.parametrize("check, argument, problem", [
    (check_trace, DESK_TRACE, ("scenario", None, None, "expected a Scenario, not NoneType")),
    (check_assignment, {0: (0, 0), 1: (0, 0)}, "expected a Scenario, not NoneType"),
    (check_partition, DESK_PARTITION, "expected a Scenario, not NoneType"),
])
def test_validators_report_a_scenario_of_the_wrong_type(check, argument, problem):
    assert check(None, argument) == [problem]


@pytest.mark.parametrize("key", [True, 1.0, "1", None])
def test_check_assignment_reports_a_task_id_that_is_no_int(key):
    # A bool or float key equals task 1's id and must not stand for it.
    assert check_assignment(DESK, {0: (0, 0), key: (0, 0)}) == [
        "tasks never assigned: [1]", f"task id {key!r} is not an int"]


@pytest.mark.parametrize("name", UNREADABLE)
def test_a_trace_refuses_an_unreadable_record(name):
    with pytest.raises(InvalidInputError) as info:
        unreadable_trace(name)
    assert str(info.value).startswith("records must" if name == "records-None" else "records[0]")


def test_a_trace_names_its_first_unreadable_record():
    with pytest.raises(InvalidInputError) as info:
        with_records(DESK_TRACE.records[:2] + ((0, "x", 0, 0.0, 0.0), 5))
    assert str(info.value) == "records[2].sector must be an int, not str"


def test_n_passes_reads_plain_tuple_records():
    trace = SimulationTrace(records=((0, 0, 0, 0.0, 0.0), (0, 0, 1, 0.0, 1.0)),
                            completion_pass=0, cycles_completed=2)
    assert trace.n_passes == 2


def test_uniform_range_takes_an_int_end():
    draws = [Xorshift64Star(seed).uniform_range(0.5, 2) for seed in range(20)]
    assert all(type(x) is float and 0.5 <= x <= 2 for x in draws)


def test_int_resources_become_floats():
    resources = scenario((5, 2.5)).resources
    assert resources == (5.0, 2.5) and all(type(r) is float for r in resources)


def test_read_partition_refuses_a_negative_id(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"assignments": [[-1]], "provenance": {}}', encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=r"partition\.assignments\[0\]"):
        sio.read_partition(path)


def test_generator_cap_admits_the_largest_request_it_names():
    """The cap bounds sectors x the most tasks per sector x the largest
    hotspot task multiplier (at least 1), not the tasks drawn."""
    from sectorsched.generate import MAX_GENERATED
    GenParams(n_sectors=360, tasks_per_sector=(5, 15), hotspots=((3, 1.0, 4.0),))
    GenParams(n_sectors=MAX_GENERATED, tasks_per_sector=(0, 1), hotspots=((0, 1.0, 0.5),))
    GenParams(n_sectors=4, tasks_per_sector=(0, 0), hotspots=((0, 1.0, 1e300),))
    with pytest.raises(InvalidInputError, match="MAX_GENERATED"):
        GenParams(n_sectors=MAX_GENERATED, tasks_per_sector=(0, 1), hotspots=((0, 1.0, 1.5),))
    with pytest.raises(InvalidInputError, match="MAX_GENERATED"):
        GenParams(n_sectors=MAX_GENERATED + 1, tasks_per_sector=(0, 0))


def test_record_cap_admits_two_cycles_of_the_largest_generated_scenario(monkeypatch):
    """The cap bounds cycles x tasks, checked before the first pass; a
    request at the cap runs."""
    from sectorsched.generate import MAX_GENERATED
    simulator = importlib.import_module("sectorsched.simulate")
    assert simulator.MAX_RECORDS >= 2 * MAX_GENERATED
    monkeypatch.setattr(simulator, "MAX_RECORDS", 6)
    assert len(simulate(DESK, "edf", cycles=3).records) == 6
    with pytest.raises(InvalidInputError, match="MAX_RECORDS=6"):
        simulate(DESK, "edf", cycles=4)


def test_write_comparison_refuses_an_unknown_format(tmp_path):
    path = tmp_path / "cmp.xml"
    with pytest.raises(InvalidInputError, match="fmt='xml' must be 'csv' or 'json'"):
        sio.write_comparison([{"policy": "edf"}], path, fmt="xml", fields=("policy",))
    assert not path.exists()


@pytest.mark.parametrize("write", [
    lambda path: sio.write_partition(None, path),
    lambda path: sio.write_load_report(None, path),
    lambda path: sio.write_trace(None, DESK, path),
    lambda path: sio.write_revisit_stats(None, path),
    lambda path: sio.write_comparison([1], path, fields=("policy",)),
    lambda path: sio.write_comparison(None, path, fields=("policy",)),
    lambda path: sio.write_comparison([{"a": 1}, {"b": 2, "c": 3}], path, fields=("a",)),
    lambda path: sio.write_comparison([{"b": 1, "a": 2}], path, fields=("a", "b")),
    lambda path: sio.write_comparison([], path, fields=("a", 1)),
    lambda path: sio.write_trace(FOREIGN_TRACE, DESK, path),
    lambda path: sio.write_comparison([{"a": "x\ny"}], path, fields=("a",)),
    lambda path: sio.write_trace(unreadable_trace("records-None"), DESK, path),
    lambda path: sio.write_trace(unreadable_trace("record-int"), DESK, path),
    lambda path: sio.write_trace(unreadable_trace("record-four-fields"), DESK, path),
], ids=["partition", "load_report", "trace", "revisit_stats", "comparison-row",
        "comparison-None", "comparison-keys", "comparison-key-order", "comparison-fields",
        "trace-foreign-task", "comparison-csv-cell", "trace-records-None", "trace-record-int",
        "trace-record-four-fields"])
def test_writer_refuses_a_wrong_argument_before_opening_the_file(write, tmp_path):
    path = tmp_path / "out"
    with pytest.raises(InvalidInputError):
        write(path)
    assert not path.exists()
