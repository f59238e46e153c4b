"""Property tests of ``simulate`` and ``check_trace`` over generated scenarios.

Needs hypothesis; the module is skipped where it is not installed.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    ExecutionRecord,
    GenParams,
    InfeasibleScenarioError,
    InvalidInputError,
    POLICY_EDF,
    POLICY_PARTITION,
    ScenarioValidationError,
    broadside_baseline,
    check_trace,
    equalize,
    revisit_stats,
    simulate,
)
from conftest import INVALID_FIELDS, mutated  # noqa: E402
from test_equalize_properties import gen_params, generated  # noqa: E402
from test_simulate import (  # noqa: E402
    reference_check_trace,
    reference_revisit_stats,
    reference_simulate,
)

# dt 2 s puts every sector's resources (5-20 s) beyond the pass, so record
# timestamps interleave across passes; a dead or starved hotspot under a
# narrow field of view holds tasks larger than every pass that reaches them.
INTERLEAVED = (GenParams(n_sectors=7, fov_half_width=1, seed=3), 2.0)
OVERSIZED = (GenParams(n_sectors=6, fov_half_width=0, hotspots=((2, 0.0, 1.0), (4, 0.3, 4.0)),
                       seed=5), 25.0)


def _runs(s):
    """Both policies: edf, the broadside partition and, where one exists, the
    equalized partition."""
    runs = [(POLICY_EDF, None), (POLICY_PARTITION, broadside_baseline(s))]
    try:
        runs.append((POLICY_PARTITION, equalize(s)))
    except InfeasibleScenarioError:
        pass  # a task whose whole field of view is dead sectors
    return runs


def _corrupted(records, kind, i, j, foreign_id, shift):
    """``records`` with one corruption: record i swapped with record j,
    moved to j, given a task id the scenario lacks, copied to j, its
    timestamp shifted, or dropped."""
    records = list(records)
    if not records:
        return records
    i, j = i % len(records), j % len(records)
    if kind == "swap":
        records[i], records[j] = records[j], records[i]
    elif kind == "move":
        records.insert(j, records.pop(i))
    elif kind == "foreign":
        records[i] = records[i]._replace(task_id=foreign_id)
    elif kind == "duplicate":
        records.insert(j, records[i])
    elif kind == "shift":
        records[i] = records[i]._replace(timestamp=records[i].timestamp + shift)
    else:
        del records[i]
    return records


class TestSimulateProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.integers(1, 3))
    def test_never_raises_and_only_named_overfills_fail_the_check(self, params, cycles):
        s = generated(params)
        if s is None:
            return
        for policy, partition in _runs(s):
            trace = simulate(s, policy, partition, cycles=cycles)
            assert trace.cycles_completed == (cycles if s.tasks else 0)
            overfilled = {w.pass_index for w in trace.warnings if w.kind == "overfill"}
            for problem in check_trace(s, trace):
                assert problem.kind == "overload" and problem.pass_index in overfilled, problem

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.sampled_from((25.0, 2.0)), st.integers(1, 3))
    @example(*INTERLEAVED, 3)
    @example(*OVERSIZED, 2)
    def test_matches_the_reference_simulator(self, params, dt, cycles):
        s = generated(dataclasses.replace(params, dt=dt))
        if s is None:
            return
        for policy, partition in _runs(s):
            trace = simulate(s, policy, partition, cycles=cycles)
            assert trace == reference_simulate(s, policy, partition, cycles)
            if cycles >= 2:
                assert revisit_stats(trace, s) == reference_revisit_stats(trace, s)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.sampled_from(("swap", "move", "foreign", "duplicate", "shift", "drop")),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.sampled_from((1e-9, -0.5, 50.0)), st.integers(1, 3))
    def test_check_trace_matches_the_per_record_reference(self, params, kind, i, j, shift,
                                                          cycles):
        s = generated(params)
        if s is None:
            return
        foreign_id = max((t.id for t in s.tasks), default=0) + 1
        for policy, partition in _runs(s):
            trace = simulate(s, policy, partition, cycles=cycles)
            bad = dataclasses.replace(
                trace, records=tuple(_corrupted(trace.records, kind, i, j, foreign_id, shift)))
            assert check_trace(s, bad) == reference_check_trace(s, bad)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.integers(1, 2), st.integers(0, 10 ** 6),
           st.sampled_from(ExecutionRecord._fields),
           st.sampled_from(("x", None, True, 1.5, 10 ** 400)))
    def test_a_trace_rebuilds_and_refuses_a_field_of_the_wrong_kind(self, params, cycles, i,
                                                                     field, value):
        # 1.5 is a number, which an offset or a timestamp may be.
        assume(value != 1.5 or field in ("task_id", "sector", "pass_index"))
        s = generated(params)
        if s is None:
            return
        for policy, partition in _runs(s):
            trace = simulate(s, policy, partition, cycles=cycles)
            assert dataclasses.replace(trace) == trace
            assert dataclasses.replace(trace, records=iter(trace.records)) == trace
            if not trace.records:
                continue
            i %= len(trace.records)
            records = list(trace.records)
            records[i] = records[i]._replace(**{field: value})
            with pytest.raises(InvalidInputError, match=rf"^records\[{i}\]\.{field}\b"):
                dataclasses.replace(trace, records=records)

    @pytest.mark.parametrize("case, reached", [
        (INTERLEAVED, lambda trace: [r.timestamp for r in trace.records]
         != sorted(r.timestamp for r in trace.records)),
        (OVERSIZED, lambda trace: any(w.kind == "overfill" for w in trace.warnings)),
    ], ids=["interleaved", "oversized"])
    def test_reference_examples_reach_their_branches(self, case, reached):
        params, dt = case
        s = generated(dataclasses.replace(params, dt=dt))
        for policy, partition in _runs(s):
            assert reached(simulate(s, policy, partition, cycles=2))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.integers(1, 3))
    def test_partition_policy_runs_each_task_in_its_assigned_sector(self, params, cycles):
        # The CLI measures a row's loads on each task's first executing sector.
        s = generated(params)
        if s is None:
            return
        partitions = [broadside_baseline(s)]
        try:
            partitions.append(equalize(s))
        except InfeasibleScenarioError:
            pass
        for partition in partitions:
            sector_of = partition.sector_index()
            trace = simulate(s, POLICY_PARTITION, partition, cycles=cycles)
            assert {rec.task_id for rec in trace.records} == set(sector_of)
            for rec in trace.records:
                assert rec.sector == sector_of[rec.task_id], rec

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.sampled_from(sorted(INVALID_FIELDS)))
    def test_one_broken_field_is_rejected(self, params, breakage):
        s = generated(params)
        assume(s is not None and len(s.tasks) >= 2)
        # The broken scenario raises while it is built, before any simulation.
        with pytest.raises(ScenarioValidationError) as info:
            mutated(s, *INVALID_FIELDS[breakage])
        assert len(info.value.violations) == 1
