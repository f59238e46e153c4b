"""Property test of ``Scenario.home``: for any sector count from 1 to 360,
every home sector is a sector, and the task's azimuth lies in that sector's
slice of the circle, up to the 1e-9 sector-width boundary tolerance.

Needs hypothesis; the module is skipped where it is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import Scenario, SurveillanceTask  # noqa: E402

# The boundary tolerance in sector widths, plus room for the rounding of
# phi / (2*pi) * N itself.
TOLERANCE = 1e-9 + 1e-12


def azimuths(n):
    """Any azimuth, a slice boundary k * 2*pi / n, the float just below one, or
    an azimuth up to 1e-6 sector widths below one."""
    boundary = st.integers(0, n - 1).map(lambda k: k * math.tau / n)
    below = st.tuples(st.integers(1, n), st.floats(1e-11, 1e-6)).map(
        lambda kd: (kd[0] - kd[1]) * math.tau / n)
    return st.one_of(st.floats(0.0, math.tau, exclude_max=True), boundary,
                     boundary.map(lambda b: math.nextafter(b, 0.0)), below)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 360), st.data())
def test_home_is_the_slice_holding_phi(n, data):
    phis = data.draw(st.lists(azimuths(n), min_size=1, max_size=20))
    s = Scenario(n_sectors=n, fov_half_width=0, dt=1.0, resources=(1.0,) * n,
                 tasks=tuple(SurveillanceTask(i, phi, 0.0, 1.0) for i, phi in enumerate(phis)))
    for task in s.tasks:
        home = s.home[task.id]
        assert 0 <= home < n
        where = task.phi / math.tau * n  # the azimuth in sector widths
        assert home - TOLERANCE <= where < home + 1 + TOLERANCE
