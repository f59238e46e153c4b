"""Property tests of ``exact_min_passes``: against the simulator on random
desk-scale scenarios (acceptance criterion 5 beyond its fixed corpus), and
against the brute-force oracle of ``test_exact`` on tiny ones.

Needs hypothesis; the module is skipped where it is not installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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
from conftest import scenario_from  # noqa: E402
from test_equalize_properties import generated  # noqa: E402
from test_exact import exists_schedule_within  # noqa: E402


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
            if not any(w.kind == "overfill" for w in trace.warnings):
                # A trace without overfill is a schedule the search also
                # considers, so it can be no better than the optimum.
                assert solution.objective <= trace.completion_pass


@st.composite
def tiny_scenarios(draw):
    """N 1-4, 1 to 8 tasks, durations and resources from a few values.

    Few distinct values make equal residuals common, within one sector
    across rotations and after different placements, so the search's
    equal-residual skip fires."""
    n = draw(st.integers(1, 4))
    tasks = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from((1.0, 1.5, 2.0, 3.0))),
        min_size=1, max_size=8))
    resources = draw(st.lists(st.sampled_from((2.0, 3.0, 4.0)), min_size=n, max_size=n))
    return scenario_from(n, draw(st.integers(0, n // 2)), 1.0, resources, tasks)


class TestExactAgainstOracle:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tiny_scenarios())
    # Two passes of 4 hold {2, 1, 1} and {1.5, 1.5, 1}; a search that tried
    # only the first fitting pass of each sector, ignoring the residual,
    # would follow first-fit decreasing into a third pass.
    @example(scenario_from(1, 0, 1.0, (4.0,), [(0, 1.0), (0, 1.0), (0, 1.0),
                                               (0, 1.5), (0, 2.0), (0, 1.5)]))
    def test_optimum_is_feasible_and_one_pass_less_is_not(self, s):
        try:
            solution = exact_min_passes(s)
        except InfeasibleScenarioError:
            # no schedule within the five-rotation horizon, by the oracle too
            assert not exists_schedule_within(s, 5 * s.n_sectors - 1)
            return
        assert solution.optimal
        assert check_assignment(s, solution.assignments) == []
        assert exists_schedule_within(s, solution.objective)
        assert not exists_schedule_within(s, solution.objective - 1)
