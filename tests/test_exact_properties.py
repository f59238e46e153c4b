"""Property test of ``exact_min_passes`` against the simulator on random
desk-scale scenarios (acceptance criterion 5 beyond its fixed corpus).

Needs hypothesis; the module is skipped where it is not installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    GenParams,
    InfeasibleScenarioError,
    LimitsExceededError,
    POLICY_EDF,
    POLICY_PARTITION,
    SearchLimits,
    check_assignment,
    equalize,
    exact_min_passes,
    simulate,
)
from test_equalize_properties import generated  # noqa: E402
from test_simulate_properties import _OVERFILL  # noqa: E402


@st.composite
def desk_params(draw):
    """N <= 6 sectors and at most 12 tasks, dead and starved sectors included."""
    n = draw(st.integers(1, 6))
    hot = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    return GenParams(
        n_sectors=n, fov_half_width=draw(st.integers(0, n)),
        tasks_per_sector=(0, 12 // n), duration=(0.5, 4.0), resources=(3.0, 10.0),
        hotspots=tuple((h, draw(st.sampled_from((0.0, 0.3, 2.0))), 1.0) for h in hot),
        seed=draw(st.integers(0, 2 ** 32)))


class TestExactProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(desk_params())
    def test_proven_objective_at_most_any_clean_trace(self, params):
        s = generated(params)
        if s is None:
            return
        try:
            solution = exact_min_passes(s, SearchLimits(node_budget=5_000))
        except (InfeasibleScenarioError, LimitsExceededError):
            return  # no pass fits some task, beyond max_rotations, or out of budget
        assert check_assignment(s, solution.assignments) == []
        if not solution.optimal:
            return
        traces = [simulate(s, POLICY_EDF)]
        try:
            traces.append(simulate(s, POLICY_PARTITION, equalize(s)))
        except InfeasibleScenarioError:
            pass  # a task whose whole field of view is dead sectors
        for trace in traces:
            if not any(map(_OVERFILL.fullmatch, trace.warnings)):
                # A trace without overfill is a schedule the search also
                # considers, so it can be no better than the optimum.
                assert solution.objective <= trace.completion_pass
