"""Property tests of ``equalize`` over generated scenarios.

Needs hypothesis; the module is skipped where it is not installed.
"""

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
)
from conftest import dedup_active_sectors  # noqa: E402


@st.composite
def gen_params(draw):
    n = draw(st.integers(1, 40))
    hot = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    return GenParams(
        n_sectors=n, fov_half_width=draw(st.integers(0, n)), tasks_per_sector=(0, 8),
        hotspots=tuple((h, draw(st.sampled_from((0.0, 0.3, 2.0))),
                        draw(st.sampled_from((0.0, 1.0, 4.0)))) for h in hot),
        seed=draw(st.integers(0, 2 ** 32)))


class TestEqualizeProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(gen_params())
    def test_partition_valid_and_own_tasks_at_home(self, params):
        s = generate(params)
        n, w = s.n_sectors, s.fov_half_width
        dead_reach = any(all(s.resources[j] == 0.0 for j in dedup_active_sectors(
            t.home_sector, w, n)) for t in s.tasks)
        if dead_reach:
            # A task whose whole field of view has no resources is never placed.
            with pytest.raises((InfeasibleScenarioError, ScenarioValidationError)):
                equalize(s)
            return
        part = equalize(s)
        assert check_partition(s, part) == []
        sector_of = part.sector_index()
        for task in s.tasks:
            if part.provenance[task.id] == PROVENANCE_OWN:
                assert sector_of[task.id] == task.home_sector
