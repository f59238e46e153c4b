"""Property tests of ``simulate`` over generated scenarios.

Needs hypothesis; the module is skipped where it is not installed.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    InfeasibleScenarioError,
    POLICY_EDF,
    POLICY_PARTITION,
    ScenarioValidationError,
    broadside_baseline,
    check_trace,
    equalize,
    simulate,
)
from conftest import INVALID_FIELDS, mutated  # noqa: E402
from test_equalize_properties import gen_params, generated  # noqa: E402

_OVERFILL = re.compile(r"task \d+ \(duration .*\) overfills sector \d+ "
                       r"\(resources .*\) in pass (\d+)")
_PASS_LOAD = re.compile(r"pass (\d+) uses .*")


class TestSimulateProperties:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.integers(1, 3))
    def test_never_raises_and_only_named_overfills_fail_the_check(self, params, cycles):
        s = generated(params)
        if s is None:
            return
        runs = [(POLICY_EDF, None), (POLICY_PARTITION, broadside_baseline(s))]
        try:
            runs.append((POLICY_PARTITION, equalize(s)))
        except InfeasibleScenarioError:
            pass  # a task whose whole field of view is dead sectors
        for policy, partition in runs:
            trace = simulate(s, policy, partition, cycles=cycles)
            assert trace.cycles_completed == (cycles if s.tasks else 0)
            overfilled = {int(m[1]) for m in map(_OVERFILL.fullmatch, trace.warnings) if m}
            for problem in check_trace(s, trace):
                load = _PASS_LOAD.fullmatch(problem)
                assert load and int(load[1]) in overfilled, problem

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gen_params(), st.sampled_from(sorted(INVALID_FIELDS)))
    def test_one_broken_field_is_rejected(self, params, breakage):
        s = generated(params)
        assume(s is not None and len(s.tasks) >= 2)
        # The broken scenario raises while it is built, before any simulation.
        with pytest.raises(ScenarioValidationError) as info:
            mutated(s, *INVALID_FIELDS[breakage])
        assert len(info.value.violations) == 1
