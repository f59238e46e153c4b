"""Property tests of ``equalize`` over generated scenarios.

Needs hypothesis; the module is skipped where it is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    CAP_SLACK,
    GenParams,
    InfeasibleScenarioError,
    PROVENANCE_OWN,
    ScenarioValidationError,
    SurveillanceTask,
    check_partition,
    equalize,
    generate,
    load_report,
    maximal_subset,
)
from conftest import dedup_active_sectors, scenario_from  # noqa: E402
from test_equalize import assert_matches_reference, reference_maximal_subset  # noqa: E402

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


@st.composite
def fill_inputs(draw):
    """``maximal_subset`` arguments: tied or quantized durations under ids in
    any order, prior use from none up, and often a budget whose cap,
    ``budget + CAP_SLACK``, lies on or an ulp beside the prior use plus the
    longest durations."""
    durations = draw(st.lists(draw(st.sampled_from((
        st.sampled_from((0.5, 1.0, 1.5, 2.0)), st.just(1.0),
        st.sampled_from((0.1, 0.2, 0.3, 1 / 3)), st.floats(0.05, 3.0)))), max_size=12))
    ids = draw(st.permutations(range(3 * len(durations))))[:len(durations)]
    tasks = [SurveillanceTask(tid, 0.0, 0.0, d) for tid, d in zip(ids, durations)]
    used = draw(st.one_of(st.just(0.0), st.sampled_from((0.1, 0.5, 1.0, 1 / 3)),
                          st.floats(0.0, 5.0)))
    longest = sorted(durations, reverse=True)[:draw(st.integers(0, len(durations)))]
    edge = used + sum(longest) - CAP_SLACK
    edge = draw(st.sampled_from((math.nextafter(edge, -math.inf), edge,
                                 math.nextafter(edge, math.inf))))
    budget = draw(st.one_of(st.just(edge), st.sampled_from((0.0, 1.0, 2.5)),
                            st.floats(0.0, 20.0)))
    return tasks, budget, used


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

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(fill_inputs())
    # used + d <= cap and d <= cap - used round apart: fits as a sum only,
    # then as a difference only.
    @example(([SurveillanceTask(0, 0.0, 0.0, 0.93), SurveillanceTask(1, 0.0, 0.0, 0.5)],
              1.0 - CAP_SLACK, 0.07))
    @example(([SurveillanceTask(0, 0.0, 0.0, 0.51), SurveillanceTask(1, 0.0, 0.0, 0.5)],
              0.57 - CAP_SLACK, 0.06))
    def test_maximal_subset_matches_reference(self, fill):
        tasks, budget, used = fill
        assert maximal_subset(tasks, budget, used) == reference_maximal_subset(tasks, budget, used)
