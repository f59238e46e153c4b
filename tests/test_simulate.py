import importlib
import math
import random

import pytest

from sectorsched import (
    CAP_SLACK,
    ExecutionRecord,
    GenParams,
    InvalidInputError,
    POLICY_EDF,
    POLICY_PARTITION,
    RevisitStats,
    Scenario,
    ScenarioValidationError,
    SimulationTrace,
    TaskRevisit,
    TraceProblem,
    broadside_baseline,
    build_partition,
    check_trace,
    equalize,
    generate,
    measure_resources,
    revisit_stats,
    simulate,
)
from conftest import INVALID_FIELDS, cyclic_distance, mutated, scenario_from


class TestSimulatePartitionDriven:
    def test_equalized_round_robin(self, tri_scenario):
        part = equalize(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=2)
        assert trace.completion_pass == 2
        assert trace.cycles_completed == 2
        assert [(r.task_id, r.pass_index) for r in trace.records] == \
            [(0, 0), (2, 1), (1, 2), (0, 3), (2, 4), (1, 5)]
        assert check_trace(tri_scenario, trace) == []
        stats = revisit_stats(trace, tri_scenario)
        assert stats.max_interval_rot == pytest.approx(1.0)
        assert stats.mean_interval_rot == pytest.approx(1.0)

    def test_broadside_needs_two_rotations(self, tri_scenario):
        part = broadside_baseline(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
        assert trace.completion_pass == 3  # second sector-0 task waits a rotation
        stats = revisit_stats(trace, tri_scenario)
        assert stats.max_interval_rot == pytest.approx(2.0)
        assert check_trace(tri_scenario, trace) == []

    def test_zero_tasks(self):
        s = scenario_from(3, 1, 1.0, (2.0,) * 3, [])
        trace = simulate(s, POLICY_PARTITION, broadside_baseline(s), cycles=2)
        assert trace.records == ()
        assert trace.completion_pass == -1
        assert trace.cycles_completed == 0
        stats = revisit_stats(trace, s)
        assert stats.per_task == ()
        assert (stats.max_interval_rot, stats.mean_interval_rot) == (0.0, 0.0)
        assert list(stats.per_sector_max_rot) == [0.0, 0.0, 0.0]

    def test_single_task_single_sector_period(self):
        s = scenario_from(1, 0, 2.5, (2.0,), [(0, 1.0)])
        trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=3)
        stats = revisit_stats(trace, s)
        assert stats.max_interval_s == pytest.approx(s.rotation_time)
        assert stats.max_interval_rot == pytest.approx(1.0)

    def test_deterministic(self, tri_scenario):
        part = equalize(tri_scenario)
        a = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
        b = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
        assert a == b

    def test_oversized_task_is_flagged_not_deadlocked(self):
        s = scenario_from(2, 0, 1.0, (4.0, 9.0), [(0, 5.0), (1, 2.0)])
        part = broadside_baseline(s)
        trace = simulate(s, POLICY_PARTITION, part, cycles=2)
        assert trace.cycles_completed == 2
        assert any(w.kind == "overfill" for w in trace.warnings)
        # the independent checker still reports the genuine capacity breach
        assert any(p.kind == "overload" for p in check_trace(s, trace))

    def test_resources_beyond_pass_duration_warn(self):
        s = scenario_from(2, 1, 1.0, (5.0, 0.5), [(0, 1.0)])
        trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=1)
        assert any(w.kind == "resources" for w in trace.warnings)


class TestSimulateEdf:
    def test_oldest_first_across_fov(self, tri_scenario):
        trace = simulate(tri_scenario, POLICY_EDF, cycles=2)
        assert trace.completion_pass == 2
        assert check_trace(tri_scenario, trace) == []
        # ids tie at the start, so pass 0 runs task 0, then 1 and 2 follow
        assert [r.task_id for r in trace.records[:3]] == [0, 1, 2]

    def test_strict_priority_blocks_until_fitting_sector(self):
        # Task 0 only fits sector 2; it is oldest, so nothing overtakes it.
        s = scenario_from(3, 1, 1.0, (4.0, 4.0, 6.0),
                          [(0, 5.0), (1, 1.0), (2, 1.0)])
        trace = simulate(s, POLICY_EDF, cycles=1)
        assert trace.records[0].task_id == 0
        assert trace.records[0].pass_index == 2
        assert check_trace(s, trace) == []

    def test_once_per_cycle(self, tri_scenario):
        trace = simulate(tri_scenario, POLICY_EDF, cycles=3)
        for tid, times in trace.illumination.items():
            assert len(times) == 3

    def test_partition_argument_rejected(self, tri_scenario):
        with pytest.raises(InvalidInputError):
            simulate(tri_scenario, POLICY_EDF, broadside_baseline(tri_scenario))


class TestSimulateValidation:
    def test_partition_required(self, tri_scenario):
        with pytest.raises(InvalidInputError):
            simulate(tri_scenario, POLICY_PARTITION, None)

    def test_partition_must_match(self, tri_scenario):
        other = scenario_from(3, 1, 1.0, (2.0,) * 3, [(0, 1.0)])
        with pytest.raises(InvalidInputError):
            simulate(tri_scenario, POLICY_PARTITION, broadside_baseline(other))

    def test_cycles_positive(self, tri_scenario):
        with pytest.raises(InvalidInputError):
            simulate(tri_scenario, POLICY_PARTITION,
                     broadside_baseline(tri_scenario), cycles=0)

    def test_cycles_is_an_int(self, tri_scenario):
        for cycles in (True, 2.0):
            with pytest.raises(InvalidInputError, match="must be a positive integer"):
                simulate(tri_scenario, POLICY_PARTITION,
                         broadside_baseline(tri_scenario), cycles=cycles)

    def test_unknown_variant(self, tri_scenario):
        # broadside is the partition variant fed the home-sector partition,
        # not a variant of its own
        for variant in ("fifo", "broadside"):
            with pytest.raises(InvalidInputError, match="not one of"):
                simulate(tri_scenario, variant, broadside_baseline(tri_scenario))

    @pytest.mark.parametrize("policy", [POLICY_PARTITION, POLICY_EDF])
    def test_refuses_a_trace_its_validator_rejects(self, tri_scenario, monkeypatch, policy):
        # Any problem but an overfilled pass's overload means the simulator
        # itself is at fault: it must not hand the trace out.
        planted = TraceProblem("fov", 0, 0, "planted fov problem")
        module = importlib.import_module("sectorsched.simulate")  # the package's name is the function
        monkeypatch.setattr(module, "check_trace", lambda s, t: [planted])
        partition = broadside_baseline(tri_scenario) if policy == POLICY_PARTITION else None
        with pytest.raises(RuntimeError, match="^simulator produced an invalid trace: "
                                               "planted fov problem$"):
            simulate(tri_scenario, policy, partition)

    @pytest.mark.parametrize("policy", [POLICY_PARTITION, POLICY_EDF])
    @pytest.mark.parametrize("breakage", INVALID_FIELDS)
    def test_invalid_scenario_rejected(self, breakage, policy):
        # The broken scenario raises while it is built, before any simulation.
        s = generate(GenParams(n_sectors=6, fov_half_width=1, seed=3))
        with pytest.raises(ScenarioValidationError) as caught:
            s = mutated(s, *INVALID_FIELDS[breakage])
            partition = broadside_baseline(s) if policy == POLICY_PARTITION else None
            simulate(s, policy, partition, cycles=2)
        assert len(caught.value.violations) == 1


class TestCheckTrace:
    def test_detects_corruption(self, tri_scenario):
        import dataclasses

        part = equalize(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=2)
        rec = trace.records[0]
        bad = dataclasses.replace(trace, records=(
            rec._replace(sector=(rec.sector + 1) % 3),
        ) + trace.records[1:])
        assert any(p.kind == "sector" for p in check_trace(tri_scenario, bad))

        dup = dataclasses.replace(trace, records=(rec, rec) + trace.records[1:])
        assert any(p.kind == "repeat" for p in check_trace(tri_scenario, dup))

    @pytest.mark.parametrize("field, value", [
        ("sector", 4), ("sector", -1), ("pass_index", -1)])
    def test_out_of_range_sector_is_a_problem(self, field, value):
        import dataclasses

        s = scenario_from(4, 1, 1.0, (2.0,) * 4, [(0, 1.0), (1, 1.0), (3, 1.0)])
        trace = simulate(s, POLICY_EDF, cycles=2)
        rec = trace.records[0]
        bad = dataclasses.replace(trace, records=(
            rec._replace(**{field: value}),) + trace.records[1:])
        problems = check_trace(s, bad)
        assert any(p.kind == "sector" and p.task_id == rec.task_id for p in problems)

    # One corruption of a clean trace per problem kind, and the problem it draws.
    @pytest.mark.parametrize("corrupt, expected", [
        (lambda r: r, []),
        (lambda r: [r[1], r[0], *r[2:]], [("order", 0, 0)]),
        (lambda r: [*r[:5], r[5]._replace(task_id=9)],
         [("unknown-task", 7, 9), ("cycles", None, None)]),
        (lambda r: [r[0]._replace(sector=1), *r[1:]], [("sector", 0, 0)]),
        (lambda r: [*r[:5], r[5]._replace(sector=1, pass_index=9)],
         [("timestamp", 9, 2), ("fov", 9, 2)]),
        (lambda r: [*r[:3], r[3]._replace(sector=1, pass_index=5), *r[4:]],
         [("timestamp", 5, 0), ("overload", 5, None)]),
        (lambda r: [*r[:4], r[4]._replace(task_id=0), r[5]],
         [("repeat", 5, 0), ("cycles", None, None)]),
    ], ids=["clean", "order", "unknown-task", "sector", "fov", "overload", "repeat"])
    def test_each_problem_kind(self, corrupt, expected):
        import dataclasses

        s = scenario_from(4, 1, 1.0, (2.0,) * 4, [(0, 1.5), (1, 1.5), (3, 1.5)])
        trace = simulate(s, POLICY_PARTITION, broadside_baseline(s), cycles=2)
        assert [(r.task_id, r.pass_index) for r in trace.records] == \
            [(0, 0), (1, 1), (2, 3), (0, 4), (1, 5), (2, 7)]
        bad = dataclasses.replace(trace, records=tuple(corrupt(list(trace.records))))
        assert [p[:3] for p in check_trace(s, bad)] == expected

    @staticmethod
    def _three_cycles():
        s = scenario_from(4, 1, 1.0, (2.0,) * 4, [(0, 1.5), (1, 1.5), (3, 1.5)])
        trace = simulate(s, POLICY_PARTITION, broadside_baseline(s), cycles=3)
        assert (trace.cycles_completed, trace.completion_pass) == (3, 3)
        return s, trace

    def test_unknown_task_is_reported_once(self):
        # The unknown record is left out of the coverage, so it draws no
        # repeat problems; the cycle it stood in closes one pass late.
        import dataclasses

        s, trace = self._three_cycles()
        records = (trace.records[0]._replace(task_id=9),) + trace.records[1:]
        problems = check_trace(s, dataclasses.replace(trace, records=records))
        assert [p[:3] for p in problems] == [("unknown-task", 0, 9), ("cycles", None, None)]
        assert problems[1].detail == (
            "records close 2 cycles, the first in pass 4, and leave 2 tasks after the "
            "last; the trace claims 3, the first in pass 3")

    def test_shifted_timestamp_is_a_problem(self):
        # A timestamp 50 s late passed the validator while revisit_stats
        # read it as a 13.5-rotation gap.
        import dataclasses

        s, trace = self._three_cycles()
        assert revisit_stats(trace, s).max_interval_rot == 1.0
        rec = trace.records[3]
        records = (*trace.records[:3], rec._replace(timestamp=rec.timestamp + 50.0),
                   *trace.records[4:])
        late = dataclasses.replace(trace, records=records)
        assert revisit_stats(late, s).max_interval_rot == 13.5
        assert [p[:3] for p in check_trace(s, late)] == [("timestamp", 4, 0)]

    def test_missing_execution_is_a_problem(self):
        import dataclasses

        s, trace = self._three_cycles()
        assert check_trace(s, trace) == []
        dropped = dataclasses.replace(trace, records=trace.records[1:])
        assert [p[:3] for p in check_trace(s, dropped)] == [("cycles", None, None)]
        # Counts that disagree with complete records are a problem too.
        for claim in ({"cycles_completed": 2}, {"completion_pass": 7}):
            wrong = dataclasses.replace(trace, **claim)
            assert [p[:3] for p in check_trace(s, wrong)] == [("cycles", None, None)]

    def test_a_split_pass_is_summed_in_record_order(self):
        # Pass 5 is split by an out-of-order record of pass 1; its load
        # resumes at 0.1 + 0.2 and reads (0.1 + 0.2) + 0.3, past the 0.5 s.
        s = scenario_from(4, 1, 1.0, (0.5,) * 4, [(1, 0.1), (1, 0.2), (1, 0.3), (1, 0.4)])
        records = tuple(ExecutionRecord(tid, 1, p, offset, p * 1.0 + offset) for tid, p, offset in (
            (0, 5, 0.0), (1, 5, 0.1), (3, 1, 0.0), (2, 5, 0.1 + 0.2)))
        trace = SimulationTrace(records=records, completion_pass=5, cycles_completed=1)
        problems = check_trace(s, trace)
        assert problems == reference_check_trace(s, trace)
        assert problems == [
            TraceProblem("order", 1, 3, "records out of execution order at pass 1"),
            TraceProblem("overload", 5, None,
                         "pass 5 uses 0.6000000000000001, sector resources 0.5")]


class TestRevisitStats:
    def test_needs_two_cycles(self, tri_scenario):
        trace = simulate(tri_scenario, POLICY_PARTITION, equalize(tri_scenario),
                         cycles=1)
        with pytest.raises(InvalidInputError):
            revisit_stats(trace, tri_scenario)

    def test_per_sector_maxima(self, tri_scenario):
        part = broadside_baseline(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
        stats = revisit_stats(trace, tri_scenario)
        assert stats.per_sector_max_rot[0] == pytest.approx(2.0)
        assert stats.per_sector_max_rot[1] == pytest.approx(2.0)
        assert stats.per_sector_max_rot[2] == 0.0  # no tasks live there

    def test_skips_a_record_of_an_unknown_task(self, tri_scenario):
        import dataclasses

        trace = simulate(tri_scenario, POLICY_PARTITION, broadside_baseline(tri_scenario),
                         cycles=3)
        stray = trace.records[0]._replace(task_id=9, timestamp=0.5)
        with_stray = dataclasses.replace(trace, records=(stray, *trace.records))
        assert revisit_stats(with_stray, tri_scenario) == revisit_stats(trace, tri_scenario)

    def test_task_run_once_in_two_cycles(self, tri_scenario):
        import dataclasses

        trace = simulate(tri_scenario, POLICY_PARTITION, equalize(tri_scenario), cycles=2)
        assert trace.cycles_completed == 2
        first = next(k for k, r in enumerate(trace.records) if r.task_id == 0)
        rest = tuple(r for k, r in enumerate(trace.records) if k == first or r.task_id != 0)
        with pytest.raises(InvalidInputError) as info:
            revisit_stats(dataclasses.replace(trace, records=rest), tri_scenario)
        assert str(info.value) == "task 0 was illuminated fewer than twice"

    def test_exec_sector_recorded(self, tri_scenario):
        part = equalize(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=2)
        stats = revisit_stats(trace, tri_scenario)
        by_task = {tr.task_id: tr for tr in stats.per_task}
        assert by_task[1].exec_sector == 2
        assert by_task[1].home_sector == 0


class TestMeasureResources:
    def test_constant_load_fixed_point(self):
        est = measure_resources([0.3] * 50, 1, 1.0, 0.25)
        assert est[0] == pytest.approx(0.7, abs=1e-12)

    def test_alpha_one_tracks_latest(self):
        est = measure_resources([0.3, 0.5, 0.1], 1, 1.0, 1.0)
        assert est[0] == pytest.approx(0.9)

    def test_alternating_load_sequence(self):
        # Frozen from iterating est <- (1-a)*est + a*(dt - used) by hand:
        # first obs seeds 0.8, then 0.5*0.8+0.5*0.6, 0.5*0.7+0.5*0.8, ...
        observations = [0.2, 0.4, 0.2, 0.4, 0.2]
        expected = [0.8, 0.7, 0.75, 0.675, 0.7375]
        for k, want in enumerate(expected, start=1):
            est = measure_resources(observations[:k], 1, 1.0, 0.5)
            assert est[0] == pytest.approx(want, abs=1e-12)

    def test_round_robin_sector_mapping(self):
        est = measure_resources([0.2, 0.9, 0.2, 0.9], 2, 1.0, 0.5)
        assert est[0] == pytest.approx(0.8)
        assert est[1] == pytest.approx(0.1)

    def test_clamped_at_zero(self):
        est = measure_resources([2.0, 2.0], 1, 1.0, 0.5)
        assert est[0] == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 1.0, 1.5)
        with pytest.raises(InvalidInputError):
            measure_resources([-0.1], 1, 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 0.0, 0.5)

    @pytest.mark.parametrize("n_sectors", [2.5, 2.0, True])
    def test_non_integer_sector_count(self, n_sectors):
        with pytest.raises(InvalidInputError, match="must be a positive integer"):
            measure_resources([0.1], n_sectors, 1.0, 0.5)

    @pytest.mark.parametrize("used, dt", [
        ([1.0, math.nan, 2.0], 5.0), ([0.1], math.nan), ([0.1], math.inf)])
    def test_non_finite_input(self, used, dt):
        with pytest.raises(InvalidInputError):
            measure_resources(used, 2, dt, 0.5)


def test_edf_and_partition_agree_on_equalized_steady_state(tri_scenario):
    # With loads equal to resources everywhere, both policies settle on a
    # one-rotation revisit for every task.
    part = equalize(tri_scenario)
    t1 = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
    t2 = simulate(tri_scenario, POLICY_EDF, cycles=3)
    s1 = revisit_stats(t1, tri_scenario)
    s2 = revisit_stats(t2, tri_scenario)
    assert s1.max_interval_rot == pytest.approx(s2.max_interval_rot)


def test_trace_timestamp_consistency(tri_scenario):
    trace = simulate(tri_scenario, POLICY_PARTITION, equalize(tri_scenario), cycles=2)
    for rec in trace.records:
        assert rec.sector == rec.pass_index % tri_scenario.n_sectors
        assert rec.timestamp == pytest.approx(
            rec.pass_index * tri_scenario.dt + rec.start_offset)


def reference_simulate(scenario, variant, partition, cycles):
    """Brute force of the README semantics, one full scan per pass.

    Each pass filters the eligible tasks not yet run this cycle, sorts them
    oldest first with id as the tie-break, and runs them until the first one
    that does not fit; a head task larger than every pass it is eligible for
    runs alone instead, with an ``overfill`` warning.  Returns the whole
    :class:`SimulationTrace`.
    """
    n, dt = scenario.n_sectors, scenario.dt
    by_id = scenario.task_by_id()
    if variant == POLICY_EDF:
        def eligible(sector, tid):
            return cyclic_distance(sector, scenario.home[tid], n) <= scenario.fov_half_width
    else:
        sector_of = partition.sector_index()

        def eligible(sector, tid):
            return sector_of[tid] == sector
    warnings = [TraceProblem("resources", None, None,
                             f"sector {j}: resources {r} exceed pass duration {dt}")
                for j, r in enumerate(scenario.resources) if r > dt]
    last = {tid: -math.inf for tid in by_id}
    done = set()
    records = []
    completion, cycles_done, pass_index = -1, 0, 0
    while by_id and cycles_done < cycles:
        sector = pass_index % n
        budget = scenario.resources[sector]
        queue = sorted((tid for tid in by_id if tid not in done and eligible(sector, tid)),
                       key=lambda tid: (last[tid], tid))
        used = 0.0
        for position, tid in enumerate(queue):
            duration = by_id[tid].duration
            oversized = False
            if used + duration > budget + CAP_SLACK:
                oversized = position == 0 and all(
                    duration > scenario.resources[j] + CAP_SLACK
                    for j in range(n) if eligible(j, tid))
                if not oversized:
                    break
            timestamp = pass_index * dt + used
            records.append(ExecutionRecord(tid, sector, pass_index, used, timestamp))
            last[tid] = timestamp
            done.add(tid)
            used += duration
            if oversized:
                warnings.append(TraceProblem(
                    "overfill", pass_index, tid, f"task {tid} (duration {duration}) "
                    f"overfills sector {sector} (resources {budget}) in pass {pass_index}"))
                break
        if len(done) == len(by_id):
            completion = pass_index if completion < 0 else completion
            cycles_done += 1
            done = set()
        pass_index += 1
    trace = SimulationTrace(records=tuple(records), completion_pass=completion,
                            cycles_completed=cycles_done, warnings=tuple(warnings))
    assert trace.n_passes == pass_index
    return trace


def reference_revisit_stats(trace, scenario):
    """Revisit statistics by their definition: each task's intervals are the
    differences of its ``trace.illumination`` timestamps, taken task by task
    in id order."""
    home = scenario.home
    if not home:
        return RevisitStats(per_task=(), max_interval_s=0.0, max_interval_rot=0.0,
                            mean_interval_s=0.0, mean_interval_rot=0.0,
                            per_sector_max_rot=(0.0,) * scenario.n_sectors)
    rotation = scenario.rotation_time
    last_sector = {rec.task_id: rec.sector for rec in trace.records}
    per_task, all_intervals = [], []
    per_sector = [0.0] * scenario.n_sectors
    for tid, h in sorted(home.items()):
        times = trace.illumination[tid]
        intervals = [b - a for a, b in zip(times, times[1:])]
        worst = max(intervals)
        per_task.append(TaskRevisit(tid, h, last_sector[tid], worst, worst / rotation))
        all_intervals.extend(intervals)
        per_sector[h] = max(per_sector[h], worst / rotation)
    worst = max(all_intervals)
    mean = math.fsum(all_intervals) / len(all_intervals)
    return RevisitStats(per_task=tuple(per_task), max_interval_s=worst,
                        max_interval_rot=worst / rotation, mean_interval_s=mean,
                        mean_interval_rot=mean / rotation,
                        per_sector_max_rot=tuple(per_sector))


def reference_check_trace(scenario, trace):
    """``check_trace`` in its per-record form: every record recomputes its
    pass start, expected sector and cyclic distance and adds its duration to
    the pass's load in a dict.  Same problems, in the same order, with the
    same ``detail`` strings."""
    if not isinstance(scenario, Scenario):
        return [TraceProblem("scenario", None, None,
                             f"expected a Scenario, not {type(scenario).__name__}")]
    if not isinstance(trace, SimulationTrace):
        return [TraceProblem("trace", None, None,
                             f"expected a SimulationTrace, not {type(trace).__name__}")]
    problems: list[TraceProblem] = []
    repeats: list[TraceProblem] = []
    duration = {t.id: t.duration for t in scenario.tasks}
    home = scenario.home
    n_tasks = len(home)
    n = scenario.n_sectors
    w = scenario.fov_half_width
    dt = scenario.dt

    load_by_pass: dict[int, float] = {}
    # Once-per-cycle coverage, cycle boundaries re-derived from the records.
    current: set[int] = set()
    closes: list[int] = []
    previous_p, previous_offset = -1, -math.inf
    for tid, sector, p, offset, timestamp in trace.records:
        # Execution order is (pass, offset); raw timestamps may interleave
        # when a sector's resources exceed the kinematic pass duration.
        if p < previous_p or (p == previous_p and offset < previous_offset):
            problems.append(TraceProblem(
                "order", p, tid, f"records out of execution order at pass {p}"))
        previous_p, previous_offset = p, offset
        if timestamp != p * dt + offset:
            problems.append(TraceProblem(
                "timestamp", p, tid, f"record for task {tid}: timestamp {timestamp} is not "
                f"pass {p} start {p * dt} plus offset {offset}"))
        h = home.get(tid)
        if h is None:
            problems.append(TraceProblem(
                "unknown-task", p, tid, f"record references unknown task {tid}"))
            continue
        if sector != p % n:
            problems.append(TraceProblem("sector", p, tid, f"record for task {tid}: "
                                         f"sector {sector} does not match pass {p}"))
        # Cyclic distance min(d, N - d) exceeds w exactly when w < d < N - w.
        d = (sector - h) % n
        if w < d < n - w:
            problems.append(TraceProblem(
                "fov", p, tid, f"task {tid} executed {min(d, n - d)} sectors from "
                f"home in pass {p} (fov half-width {w})"))
        load_by_pass[p] = load_by_pass.get(p, 0.0) + duration[tid]
        if tid in current:
            repeats.append(TraceProblem(
                "repeat", p, tid, f"task {tid} executed twice within one cycle (pass {p})"))
            continue
        current.add(tid)
        if len(current) == n_tasks:
            closes.append(p)
            current = set()
    for p, used in sorted(load_by_pass.items()):
        cap = scenario.resources[p % n]
        if used > cap + CAP_SLACK:
            problems.append(TraceProblem(
                "overload", p, None, f"pass {p} uses {used}, sector resources {cap}"))
    problems += repeats
    first = closes[0] if closes else -1
    if current or (len(closes), first) != (trace.cycles_completed, trace.completion_pass):
        problems.append(TraceProblem(
            "cycles", None, None, f"records close {len(closes)} cycles, the first in "
            f"pass {first}, and leave {len(current)} tasks after the last; the trace "
            f"claims {trace.cycles_completed}, the first in pass {trace.completion_pass}"))
    return problems


def _equivalence_scenario(n, fov, seed, resources, dead, dt):
    s = generate(GenParams(n_sectors=n, fov_half_width=fov, dt=dt,
                           tasks_per_sector=(0, 4), duration=(0.5, 3.0),
                           resources=resources, seed=seed))
    rng = random.Random(seed)
    res = list(s.resources)
    for j in rng.sample(range(n), dead):
        res[j] = 0.0
    return Scenario(n_sectors=n, fov_half_width=fov, dt=dt,
                    resources=tuple(res), tasks=s.tasks)


# (n, fov, resources range, dead sectors, dt): fov 0, fov >= N/2, N=1,
# zero-resource sectors, resources beyond dt, tasks too big for any pass,
# and windows narrower than N (N-1 at N=60, fov 29) whose buckets leave
# and re-enter within one cycle, including cycles of several rotations.
EQUIVALENCE_CASES = [
    (1, 0, (2.0, 6.0), 0, 25.0),
    (1, 3, (0.2, 1.0), 0, 25.0),
    (2, 0, (1.0, 4.0), 0, 25.0),
    (2, 1, (1.0, 4.0), 1, 25.0),
    (7, 0, (2.0, 8.0), 2, 25.0),
    (7, 3, (1.0, 6.0), 3, 25.0),
    (8, 9, (1.0, 5.0), 0, 25.0),
    (12, 2, (0.1, 2.5), 4, 25.0),
    (12, 1, (5.0, 20.0), 0, 2.0),
    (30, 5, (5.0, 20.0), 1, 25.0),
    (30, 1, (0.2, 2.0), 6, 1.0),
    (60, 1, (1.0, 6.0), 3, 25.0),
    (60, 29, (1.0, 6.0), 2, 25.0),
    (61, 30, (1.0, 6.0), 2, 25.0),
    (120, 10, (1.0, 3.0), 5, 25.0),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES,
                         ids=[f"n{c[0]}-fov{c[1]}-dead{c[3]}" for c in EQUIVALENCE_CASES])
def test_bucket_drain_matches_brute_force(case, seed):
    s = _equivalence_scenario(*case[:2], seed, *case[2:])
    rng = random.Random(seed)
    anywhere = build_partition(s.n_sectors, {
        t.id: rng.choice([j for j in range(s.n_sectors) if cyclic_distance(
            j, s.home[t.id], s.n_sectors) <= s.fov_half_width])
        for t in s.tasks}, {t.id: "fov-equalized" for t in s.tasks})
    runs = [(POLICY_EDF, None), (POLICY_PARTITION, broadside_baseline(s)),
            (POLICY_PARTITION, anywhere)]
    for variant, partition in runs:
        cycles = 1 + seed
        trace = simulate(s, variant, partition, cycles=cycles)
        assert trace == reference_simulate(s, variant, partition, cycles)
        assert trace.illumination == {
            tid: tuple(r[4] for r in trace.records if r[0] == tid) for tid in s.task_by_id()}


def test_equivalence_cases_reach_every_branch():
    # The cases above must keep exercising overfills, empty scenarios, and
    # edf cycles longer than a rotation under a window narrower than N, so
    # that buckets leave the window and re-enter it within one cycle.
    overfills = empty = rolled = 0
    for case in EQUIVALENCE_CASES:
        n, fov = case[:2]
        for seed in (0, 1, 2):
            s = _equivalence_scenario(n, fov, seed, *case[2:])
            empty += not s.tasks
            trace = simulate(s, POLICY_EDF)
            overfills += any(w.kind == "overfill" for w in trace.warnings)
            rolled += 2 * s.fov_half_width + 1 < n and trace.completion_pass >= n
    assert overfills >= 5
    assert empty >= 1
    assert rolled >= 1
