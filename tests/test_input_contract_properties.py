"""Property test of the argument contract: a malformed number anywhere ends
in a result or a typed error.

One or two numeric arguments of a valid call are replaced by text, a bool,
``None``, NaN, an infinity or an int beyond the float range.  The call must
return or raise a :class:`SectorSchedError`; a ``TypeError``, ``ValueError``
or ``OverflowError`` fails the test.

Needs hypothesis; the module is skipped where it is not installed.
"""

import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import (  # noqa: E402
    GenParams,
    POLICY_EDF,
    Scenario,
    SchedulePartition,
    SearchLimits,
    SectorSchedError,
    SurveillanceTask,
    Xorshift64Star,
    bin_packing_reduce,
    generate,
    maximal_subset,
    measure_resources,
    sector_of_direction,
    simulate,
)
from sectorsched import io as sio  # noqa: E402
from conftest import scenario_from  # noqa: E402

JUNK = ("x", "12", True, False, None, math.nan, math.inf, -math.inf, 10 ** 400)

TINY = scenario_from(3, 1, 1.0, (1.0, 1.0, 1.0), [(0, 0.5), (1, 0.5), (2, 0.5)])


def _scenario(n, w, dt, r0, r1, tid, phi, theta, duration):
    return Scenario(n_sectors=n, fov_half_width=w, dt=dt, resources=(r0, r1),
                    tasks=(SurveillanceTask(tid, phi, theta, duration),))


def _generate(n, w, dt, seed, count_lo, count_hi, d_lo, d_hi, r_lo, r_hi,
              sector, res_mult, task_mult):
    return generate(GenParams(
        n_sectors=n, fov_half_width=w, dt=dt, seed=seed,
        tasks_per_sector=(count_lo, count_hi), duration=(d_lo, d_hi),
        resources=(r_lo, r_hi), hotspots=((sector, res_mult, task_mult),)))


def _partition_round_trip(tid, tagged, tag):
    """A partition that can be built is written and read back unchanged."""
    partition = SchedulePartition(((tid,),), {tagged: tag})
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "p.json"
        sio.write_partition(partition, path)
        back = sio.read_partition(path)
    assert back.assignments == partition.assignments
    assert dict(back.provenance) == dict(partition.provenance)


# name -> (call, valid positional arguments, every one a number or a tag)
ENTRY_POINTS = {
    "Scenario": (_scenario, (2, 1, 1.0, 1.0, 2.0, 0, 0.1, 0.0, 1.0)),
    "generate": (_generate, (3, 1, 25.0, 0, 0, 2, 0.5, 3.0, 5.0, 20.0, 1, 0.5, 2.0)),
    "sector_of_direction": (sector_of_direction, (0.1, 4)),
    "measure_resources": (lambda u0, u1, n, dt, alpha: measure_resources(
        [u0, u1], n, dt, alpha), (1.0, 2.0, 2, 5.0, 0.5)),
    "simulate": (lambda cycles: simulate(TINY, POLICY_EDF, cycles=cycles), (2,)),
    "SearchLimits": (SearchLimits, (100,)),
    "bin_packing_reduce": (lambda s0, s1, c0, c1: bin_packing_reduce(
        [s0, s1], [c0, c1]), (1.0, 2.0, 3.0, 4.0)),
    "maximal_subset": (lambda d, budget, used: maximal_subset(
        [SurveillanceTask(0, 0.1, 0.0, d)], budget, used), (1.0, 5.0, 0.0)),
    "Xorshift64Star": (lambda seed: Xorshift64Star(seed).next_u64(), (7,)),
    "SchedulePartition": (_partition_round_trip, (0, 0, "own-sector")),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_arguments_return(name):
    call, args = ENTRY_POINTS[name]
    call(*args)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
def test_junk_numbers_return_or_raise_a_typed_error(name, data):
    call, base = ENTRY_POINTS[name]
    args = list(base)
    for k in data.draw(st.sets(st.integers(0, len(base) - 1), min_size=1, max_size=2)):
        args[k] = data.draw(st.sampled_from(JUNK))
    try:
        call(*args)
    except SectorSchedError:
        pass
