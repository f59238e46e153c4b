"""Property tests of ``equalize`` over generated scenarios.

Needs hypothesis; the module is skipped where it is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    GenParams,
    InfeasibleScenarioError,
    PROVENANCE_OWN,
    ScenarioValidationError,
    check_partition,
    equalize,
    generate,
    load_report,
)
from conftest import dedup_active_sectors, scenario_from  # noqa: E402
from test_equalize import assert_matches_reference  # noqa: E402

NO_RESOURCES = "all sector resources are zero but the task set is non-empty"


@st.composite
def gen_params(draw):
    n = draw(st.integers(1, 40))
    hot = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    return GenParams(
        n_sectors=n, fov_half_width=draw(st.integers(0, n)), tasks_per_sector=(0, 8),
        hotspots=tuple((h, draw(st.sampled_from((0.0, 0.3, 2.0))),
                        draw(st.sampled_from((0.0, 1.0, 4.0)))) for h in hot),
        seed=draw(st.integers(0, 2 ** 32)))


def generated(params):
    """``generate(params)``, or None for the one invalid scenario the
    parameters can describe: tasks but no resources anywhere."""
    try:
        return generate(params)
    except ScenarioValidationError as exc:
        assert exc.violations == [NO_RESOURCES]
        return None


@st.composite
def tied_scenarios(draw):
    """Small scenarios with few distinct durations and resources, so that
    ties reach every ordering.  Half-widths cover windows that slide and wrap
    the circle, 2w == N, and 2w >= N - 1, where the window reaches every
    sector."""
    n = draw(st.integers(1, 24))
    w = draw(st.one_of(st.integers(0, n), st.sampled_from((n // 2, (n - 1) // 2))))
    durations = draw(st.sampled_from((
        st.sampled_from((0.5, 1.0, 1.5, 2.0)), st.just(1.0),
        st.sampled_from((0.1, 0.2, 0.3, 1 / 3)), st.floats(0.05, 3.0))))
    homes = draw(st.lists(st.tuples(st.integers(0, n - 1), durations), max_size=4 * n))
    resources = draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.5)),
                              min_size=n, max_size=n))
    if not any(resources):
        resources[0] = 1.0
    return scenario_from(n, w, 1.0, resources, homes)


def window_bound(scenario):
    """Lower bound on any partition's max relative load, from first principles.

    The tasks homed in a cyclic arc of sectors can only run in that arc
    widened by the field of view, whose targets add up to r_opt times its
    resources; so some sector there is loaded at least demand / that much.
    """
    n, w = scenario.n_sectors, scenario.fov_half_width
    demand = [0.0] * n
    for task in scenario.tasks:
        demand[scenario.home[task.id]] += task.duration
    r_opt = math.fsum(demand) / math.fsum(scenario.resources)
    bound = 0.0
    for start in range(n):
        for length in range(1, n + 1):
            arc = math.fsum(demand[(start + k) % n] for k in range(length))
            reach = math.fsum(scenario.resources[(start - w + k) % n]
                              for k in range(min(length + 2 * w, n)))
            if arc > 0.0:
                bound = max(bound, arc / (r_opt * reach) if reach > 0.0 else math.inf)
    return bound


class TestEqualizeProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(gen_params())
    def test_partition_valid_and_own_tasks_at_home(self, params):
        s = generated(params)
        if s is None:
            return
        n, w = s.n_sectors, s.fov_half_width
        dead_reach = any(all(s.resources[j] == 0.0 for j in dedup_active_sectors(
            home, w, n)) for home in s.home.values())
        if dead_reach:
            # A task whose whole field of view has no resources is never placed.
            with pytest.raises(InfeasibleScenarioError):
                equalize(s)
            return
        part = equalize(s)
        assert check_partition(s, part) == []
        sector_of = part.sector_index()
        for task in s.tasks:
            if part.provenance[task.id] == PROVENANCE_OWN:
                assert sector_of[task.id] == s.home[task.id]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(gen_params())
    def test_max_relative_load_at_least_window_bound(self, params):
        s = generated(params)
        if s is None or not s.tasks:
            return
        try:
            part = equalize(s)
        except InfeasibleScenarioError:
            return
        bound = window_bound(s)
        assert bound >= 1.0 - 1e-9  # the whole circle is one of the arcs
        assert load_report(s, part).max_relative_load >= bound * (1.0 - 1e-9)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tied_scenarios())
    def test_matches_reference_equalizer(self, s):
        assert_matches_reference(s)
