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
from conftest import dedup_active_sectors  # noqa: E402

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


def window_bound(scenario):
    """Lower bound on any partition's max relative load, from first principles.

    The tasks homed in a cyclic arc of sectors can only run in that arc
    widened by the field of view, whose targets add up to r_opt times its
    resources; so some sector there is loaded at least demand / that much.
    """
    n, w = scenario.n_sectors, scenario.fov_half_width
    demand = [0.0] * n
    for task in scenario.tasks:
        demand[task.home_sector] += task.duration
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
            t.home_sector, w, n)) for t in s.tasks)
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
                assert sector_of[task.id] == task.home_sector

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
