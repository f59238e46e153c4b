"""The argument contract of the public entry points, by example.

Every row is a call with one malformed argument: text, a bool, ``None``,
NaN, inf or an int beyond the float range where a number is due, a float
where an int is due.  Each must raise :class:`InvalidInputError`, never a
bare ``TypeError``/``ValueError``/``OverflowError`` and never a result.
Counts follow one rule (an ``int`` >= 1, or >= 0 for a half-width, within
the float range, never a bool) and pass times another (a number, positive
and finite).
"""

import math

import pytest

from sectorsched import (
    GenParams,
    InvalidInputError,
    Scenario,
    ScenarioFormatError,
    SchedulePartition,
    SurveillanceTask,
    Xorshift64Star,
    bin_packing_reduce,
    build_partition,
    exact_min_passes,
    main_sector,
    maximal_subset,
    measure_resources,
    sector_of_direction,
)
from sectorsched import io as sio

TASKS = [SurveillanceTask(0, 0.1, 0.0, 1.0), SurveillanceTask(1, 0.2, 0.0, 2.0)]


def scenario(resources):
    return Scenario(n_sectors=len(resources), fov_half_width=0, dt=1.0, resources=resources)


DESK = Scenario(n_sectors=1, fov_half_width=0, dt=1.0, resources=(5.0,), tasks=tuple(TASKS))


# (entry point, positional arguments, keyword arguments)
CASES = {
    # A pass time is positive and finite wherever it is taken.
    "GenParams-dt-nan": (GenParams, (), {"dt": math.nan}),
    "GenParams-dt-inf": (GenParams, (), {"dt": math.inf}),
    "main_sector-dt-bool": (main_sector, (0.0, 4, True), {}),
    "main_sector-dt-text": (main_sector, (0.0, 4, "x"), {}),
    "measure_resources-dt-text": (measure_resources, ([1.0], 1, "x", 0.5), {}),
    # The other numbers of the geometry and resource helpers.
    "main_sector-t-text": (main_sector, ("x", 4, 1.0), {}),
    "sector_of_direction-phi-text": (sector_of_direction, ("x", 4), {}),
    "measure_resources-alpha-text": (measure_resources, ([1.0], 1, 1.0, "x"), {}),
    "measure_resources-usage-text": (measure_resources, (["x"], 1, 1.0, 0.5), {}),
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
    # A partition checks its ids and tags when it is built.
    "SchedulePartition-float-id": (SchedulePartition, (((1.5,),), {}), {}),
    "SchedulePartition-bool-id": (SchedulePartition, (((True,),), {}), {}),
    "SchedulePartition-negative-id": (SchedulePartition, (((-1,),), {}), {}),
    "SchedulePartition-list-row": (SchedulePartition, (([0],), {}), {}),
    "SchedulePartition-bool-tagged-id": (SchedulePartition, (((1,),), {True: "leftover"}), {}),
    "SchedulePartition-int-tag": (SchedulePartition, (((0,),), {0: 5}), {}),
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
    # A count is within the float range.
    "sector_of_direction-n-huge": (sector_of_direction, (0.1, 10 ** 400), {}),
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
}


@pytest.mark.parametrize("name", CASES)
def test_bad_argument_is_an_invalid_input_error(name):
    entry, args, kwargs = CASES[name]
    with pytest.raises(InvalidInputError):
        entry(*args, **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: GenParams(dt=math.nan), "dt=nan must be positive and finite"),
    (lambda: main_sector(0.0, 2.5, 1.0), "n_sectors=2.5 must be a positive integer"),
    (lambda: GenParams(fov_half_width=-1), "fov_half_width=-1 must be a non-negative integer"),
    (lambda: scenario((None,)), "resources[0]=None must be an int or a float"),
    (lambda: scenario((10 ** 400,)), "resources[0]: an int beyond the float range"),
    (lambda: GenParams(duration=(math.nan, 3.0)), "bad duration range (nan, 3.0)"),
    (lambda: GenParams(resources=(1.0, math.inf)), "bad resources range (1.0, inf)"),
    (lambda: GenParams(resources=(5.0, 1.0)), "bad resources range (5.0, 1.0)"),
    (lambda: measure_resources([1.0], 10 ** 20, 1.0, 0.5),
     "n_sectors=100000000000000000000 is more sectors than a list holds"),
    (lambda: exact_min_passes(DESK, 5000), "limits must be a SearchLimits, not int"),
    (lambda: GenParams(n_sectors=10 ** 15),
     "n_sectors=1000000000000000 exceeds MAX_GENERATED=1000000"),
    (lambda: build_partition(2, {0: True}), "task 0: sector True is not an integer in [0, 2)"),
    (lambda: bin_packing_reduce(5, [1.0]), "item sizes must be iterable, not int"),
    (lambda: Scenario(1, 0, 1.0, (5.0,), (5,)), "tasks[0]=5 is not a SurveillanceTask"),
])
def test_messages_name_the_argument(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


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


def test_write_comparison_refuses_an_unknown_format(tmp_path):
    path = tmp_path / "cmp.xml"
    with pytest.raises(InvalidInputError, match="fmt='xml' must be 'csv' or 'json'"):
        sio.write_comparison([{"policy": "edf"}], path, fmt="xml")
    assert not path.exists()
