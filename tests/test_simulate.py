import math
import random
import re

import pytest

from sectorsched import (
    CAP_SLACK,
    GenParams,
    InsufficientDataError,
    InvalidInputError,
    POLICY_EDF,
    POLICY_PARTITION,
    Scenario,
    ScenarioValidationError,
    angular_sector_distance,
    broadside_baseline,
    build_partition,
    check_trace,
    equalize,
    generate,
    measure_resources,
    revisit_stats,
    simulate,
)
from conftest import INVALID_FIELDS, mutated, scenario_from


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
        assert any("overfills" in w for w in trace.warnings)
        # the independent checker still reports the genuine capacity breach
        assert any("uses" in p for p in check_trace(s, trace))

    def test_resources_beyond_pass_duration_warn(self):
        s = scenario_from(2, 1, 1.0, (5.0, 0.5), [(0, 1.0)])
        trace = simulate(s, POLICY_PARTITION, equalize(s), cycles=1)
        assert any("exceed pass duration" in w for w in trace.warnings)


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

    def test_unknown_variant(self, tri_scenario):
        # broadside is the partition variant fed the home-sector partition,
        # not a variant of its own
        for variant in ("fifo", "broadside"):
            with pytest.raises(InvalidInputError, match="not one of"):
                simulate(tri_scenario, variant, broadside_baseline(tri_scenario))

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
        assert any("does not match pass" in p for p in check_trace(tri_scenario, bad))

        dup = dataclasses.replace(trace, records=(rec, rec) + trace.records[1:])
        assert any("twice within one cycle" in p for p in check_trace(tri_scenario, dup))

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
        assert any(f"task {rec.task_id}: sector" in p and "does not match pass" in p
                   for p in problems)


class TestRevisitStats:
    def test_needs_two_cycles(self, tri_scenario):
        trace = simulate(tri_scenario, POLICY_PARTITION, equalize(tri_scenario),
                         cycles=1)
        with pytest.raises(InsufficientDataError):
            revisit_stats(trace, tri_scenario)

    def test_per_sector_maxima(self, tri_scenario):
        part = broadside_baseline(tri_scenario)
        trace = simulate(tri_scenario, POLICY_PARTITION, part, cycles=3)
        stats = revisit_stats(trace, tri_scenario)
        assert stats.per_sector_max_rot[0] == pytest.approx(2.0)
        assert stats.per_sector_max_rot[1] == pytest.approx(2.0)
        assert stats.per_sector_max_rot[2] == 0.0  # no tasks live there

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
        assert est.available[0] == pytest.approx(0.7, abs=1e-12)

    def test_alpha_one_tracks_latest(self):
        est = measure_resources([0.3, 0.5, 0.1], 1, 1.0, 1.0)
        assert est.available[0] == pytest.approx(0.9)

    def test_alternating_load_sequence(self):
        # Frozen from iterating est <- (1-a)*est + a*(dt - used) by hand:
        # first obs seeds 0.8, then 0.5*0.8+0.5*0.6, 0.5*0.7+0.5*0.8, ...
        observations = [0.2, 0.4, 0.2, 0.4, 0.2]
        expected = [0.8, 0.7, 0.75, 0.675, 0.7375]
        for k, want in enumerate(expected, start=1):
            est = measure_resources(observations[:k], 1, 1.0, 0.5)
            assert est.available[0] == pytest.approx(want, abs=1e-12)

    def test_round_robin_sector_mapping(self):
        est = measure_resources([0.2, 0.9, 0.2, 0.9], 2, 1.0, 0.5)
        assert est.available[0] == pytest.approx(0.8)
        assert est.available[1] == pytest.approx(0.1)

    def test_clamped_at_zero(self):
        est = measure_resources([2.0, 2.0], 1, 1.0, 0.5)
        assert est.available[0] == 0.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 1.0, 1.5)
        with pytest.raises(InvalidInputError):
            measure_resources([-0.1], 1, 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            measure_resources([0.1], 1, 0.0, 0.5)

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
        assert rec.rotation == rec.pass_index // tri_scenario.n_sectors
        assert rec.timestamp == pytest.approx(
            rec.pass_index * tri_scenario.dt + rec.start_offset)


def reference_simulate(scenario, variant, partition, cycles):
    """Brute force of the README semantics, one full scan per pass.

    Each pass filters the eligible tasks not yet run this cycle, sorts them
    oldest first with id as the tie-break, and runs them until the first one
    that does not fit; a head task larger than every pass it is eligible for
    runs alone instead.  Returns (records, overfilled passes, completion
    pass, passes, cycles).
    """
    n = scenario.n_sectors
    by_id = scenario.task_by_id()
    if variant == POLICY_EDF:
        def eligible(sector, tid):
            return angular_sector_distance(
                sector, by_id[tid].home_sector, n) <= scenario.fov_half_width
    else:
        sector_of = partition.sector_index()

        def eligible(sector, tid):
            return sector_of[tid] == sector
    last = {tid: -math.inf for tid in by_id}
    done = set()
    records, overfilled = [], []
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
            timestamp = pass_index * scenario.dt + used
            records.append((tid, sector, pass_index, used, timestamp))
            last[tid] = timestamp
            done.add(tid)
            used += duration
            if oversized:
                overfilled.append(pass_index)
                break
        if by_id and len(done) == len(by_id):
            completion = pass_index if completion < 0 else completion
            cycles_done += 1
            done = set()
        pass_index += 1
    return records, overfilled, completion, pass_index, cycles_done


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
        t.id: rng.choice([j for j in range(s.n_sectors) if angular_sector_distance(
            j, t.home_sector, s.n_sectors) <= s.fov_half_width])
        for t in s.tasks}, {t.id: "fov-equalized" for t in s.tasks})
    runs = [(POLICY_EDF, None), (POLICY_PARTITION, broadside_baseline(s)),
            (POLICY_PARTITION, anywhere)]
    for variant, partition in runs:
        cycles = 1 + seed
        trace = simulate(s, variant, partition, cycles=cycles)
        records, overfilled, completion, passes, done = reference_simulate(
            s, variant, partition, cycles)
        assert [(r.task_id, r.sector, r.pass_index, r.start_offset, r.timestamp)
                for r in trace.records] == records
        assert [int(re.search(r"in pass (\d+)$", w).group(1))
                for w in trace.warnings if "overfills" in w] == overfilled
        assert (trace.completion_pass, trace.n_passes, trace.cycles_completed) == \
            (completion, passes, done)
        assert trace.illumination == {
            tid: tuple(r[4] for r in records if r[0] == tid) for tid in s.task_by_id()}


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
            overfills += any("overfills" in w for w in trace.warnings)
            rolled += 2 * s.fov_half_width + 1 < n and trace.completion_pass >= n
    assert overfills >= 5
    assert empty >= 1
    assert rolled >= 1
