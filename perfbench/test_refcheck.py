"""The reference checks accept a valid hand-made output and reject broken ones.

    python3 -m pytest perfbench/test_refcheck.py -q

The instance has four sectors of 10 s, field of view 1, resources 5, 5, 5
and a dead sector 3.  Tasks 0-3 are homed in sectors 0-3 with durations 3,
4, 2 and 1; the valid plan runs tasks 0 and 3 in sector 0 and the others at
home, so its relative loads are 1.2, 1.2, 0.6 and 0.
"""

import math

import pytest

import refcheck as rc


def _phi(home: int, n: int = 4) -> float:
    return (home + 0.5) * 2 * math.pi / n


INST = rc.instance(4, 1, 10.0, (5.0, 5.0, 5.0, 0.0),
                   [(0, _phi(0), 3.0), (1, _phi(1), 4.0), (2, _phi(2), 2.0), (3, _phi(3), 1.0)])
PARTITION = [[0, 3], [1], [2], []]
SECTOR_OF = {0: 0, 3: 0, 1: 1, 2: 2}
# Two cycles: passes 0-2, then (after the dead sector's pass 3) passes 4-6.
TRACE = [(0, 0, 0, 0.0, 0.0), (0, 0, 3, 3.0, 3.0), (1, 1, 1, 0.0, 10.0), (2, 2, 2, 0.0, 20.0),
         (4, 0, 0, 0.0, 40.0), (4, 0, 3, 3.0, 43.0), (5, 1, 1, 0.0, 50.0),
         (6, 2, 2, 0.0, 60.0)]
INTERVALS = {0: 40.0, 1: 40.0, 2: 40.0, 3: 40.0}


def test_valid_outputs_pass():
    problems, sector_of = rc.check_partition(INST, PARTITION)
    assert problems == [] and sector_of == SECTOR_OF
    assert rc.relative_loads(INST, SECTOR_OF) == pytest.approx([1.2, 1.2, 0.6, 0.0])
    assert rc.check_reported_loads(INST, SECTOR_OF, [1.2, 1.2, 0.6, 0.0]) == []
    assert rc.check_trace(INST, TRACE, 2, SECTOR_OF) == ([], 2)
    assert rc.check_trace(INST, TRACE, 2, None) == ([], 2)
    assert rc.completion_bound(INST, SECTOR_OF) == 2
    assert rc.check_revisits(INST, TRACE, INTERVALS) == ([], 1.0)
    assert rc.check_load_bounds(INST, 1.2) == ([], pytest.approx(1.0))


def test_overfilled_pass_is_rejected():
    # Task 2 pulled forward into sector 1's pass: 4 + 2 > 5.
    trace = [TRACE[0], TRACE[1], TRACE[2], (1, 1, 2, 4.0, 14.0)]
    problems, _ = rc.check_trace(INST, trace, 1, None)
    assert any("uses 6.0 of 5.0" in p for p in problems)


def test_oversized_single_task_is_accepted_only_when_it_fits_nowhere():
    inst = rc.instance(3, 1, 10.0, (2.0, 2.0, 2.0), [(0, _phi(0, 3), 3.0)])
    assert rc.check_trace(inst, [(0, 0, 0, 0.0, 0.0)], 1, {0: 0}) == ([], 0)
    roomy = rc.instance(3, 1, 10.0, (2.0, 4.0, 2.0), [(0, _phi(0, 3), 3.0)])
    problems, _ = rc.check_trace(roomy, [(0, 0, 0, 0.0, 0.0)], 1, None)
    assert any("uses" in p for p in problems)


def test_task_outside_fov_is_rejected():
    # Task 0 (home 0) run in sector 2, two sectors away.
    trace = [(2, 2, 0, 0.0, 20.0) if rec[2] == 0 and rec[0] == 0 else rec for rec in TRACE]
    problems, _ = rc.check_trace(INST, sorted(trace), 2, None)
    assert any("outside its field of view" in p for p in problems)
    problems, _ = rc.check_partition(INST, [[3], [1], [0, 2], []])
    assert any("outside its field of view" in p for p in problems)


def test_task_in_wrong_partition_sector_is_rejected():
    trace = [(1, 1, 2, 4.0, 14.0) if rec == TRACE[3] else rec for rec in TRACE]
    problems, _ = rc.check_trace(INST, trace, 2, SECTOR_OF)
    assert any("assigned 2" in p for p in problems)


def test_missing_task_is_rejected():
    trace = [rec for rec in TRACE if rec[2] != 2]
    problems, _ = rc.check_trace(INST, trace, 2, SECTOR_OF)
    assert any("complete cycles" in p for p in problems)
    problems, _ = rc.check_partition(INST, [[0, 3], [1], [], []])
    assert any("never assigned" in p for p in problems)


def test_task_twice_in_one_cycle_is_rejected():
    trace = TRACE[:4] + [(3, 3, 3, 0.0, 30.0)] + TRACE[4:]
    problems, _ = rc.check_trace(INST, trace, 2, None)
    assert any("twice in one cycle" in p for p in problems)


def test_wrong_offset_and_timestamp_are_rejected():
    trace = [(0, 0, 3, 2.5, 2.5) if rec == TRACE[1] else rec for rec in TRACE]
    problems, _ = rc.check_trace(INST, trace, 2, SECTOR_OF)
    assert any("offset" in p for p in problems)
    trace = [(1, 1, 1, 0.0, 11.0) if rec == TRACE[2] else rec for rec in TRACE]
    problems, _ = rc.check_trace(INST, trace, 2, SECTOR_OF)
    assert any("timestamp" in p for p in problems)


def test_wrong_interval_is_rejected():
    problems, _ = rc.check_revisits(INST, TRACE, {**INTERVALS, 1: 39.0})
    assert any("task 1" in p for p in problems)
    problems, _ = rc.check_revisits(INST, TRACE, {0: 40.0, 1: 40.0, 2: 40.0})
    assert problems


def test_wrong_relative_load_is_rejected():
    problems = rc.check_reported_loads(INST, SECTOR_OF, [1.2, 1.1, 0.6, 0.0])
    assert len(problems) == 1 and problems[0].startswith("sector 1: relative load 1.1,")


def test_load_below_the_bound_is_rejected():
    problems, bound = rc.check_load_bounds(INST, 0.9)
    assert bound == pytest.approx(1.0)
    assert any("below the window bound" in p for p in problems)


def test_window_bound_matches_lp_on_a_hotspot():
    # Sector 0 holds 12 s of the 17 s demand but sees only 3 of 6 sectors.
    tasks = [(k, _phi(0, 6), 3.0) for k in range(4)]
    tasks += [(4 + h, _phi(h, 6), 1.0) for h in range(1, 6)]
    inst = rc.instance(6, 1, 10.0, (5.0,) * 6, tasks)
    assert rc.window_bound(inst) == pytest.approx(12 / (17 / 30 * 15))
    assert rc.lp_bound(inst) == pytest.approx(rc.window_bound(inst), rel=1e-6)
    problems, _ = rc.check_load_bounds(inst, 1.3)
    assert len(problems) == 2


def test_completion_before_capacity_bound_is_rejected():
    # Sector 1 carries 9 s on 5 s passes, so it needs its pass 5 as well.
    assert rc.completion_bound(INST, {0: 0, 1: 1, 2: 1, 3: 0}) == 5


def test_exact_plan_checks():
    plan = {0: (0, 0), 3: (0, 0), 1: (1, 0), 2: (2, 0)}
    assert rc.check_exact(INST, plan, 2, True, one_rotation=True) == []
    problems = rc.check_exact(INST, {**plan, 2: (1, 0)}, 1, True)
    assert any("planned with 6.0" in p for p in problems)
    problems = rc.check_exact(INST, {0: (0, 0), 3: (0, 0), 1: (1, 0)}, 1, True)
    assert any("never assigned" in p for p in problems)
    problems = rc.check_exact(INST, plan, 1, True)
    assert any("last planned pass 2" in p for p in problems)
    late = {**plan, 2: (2, 1)}
    problems = rc.check_exact(INST, late, 6, True, one_rotation=True)
    assert any("planted one-rotation" in p for p in problems)
    # A budget-out may end past the first rotation; it only has to be valid.
    assert rc.check_exact(INST, late, 6, False, one_rotation=True) == []


def test_partition_on_dead_sector_is_rejected():
    problems, _ = rc.check_partition(INST, [[0], [1], [2], [3]])
    assert any("zero-resource" in p for p in problems)
