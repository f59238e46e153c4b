"""Property tests of the trace and revisit CSV writers.

``write_trace`` and ``write_revisit_stats`` write the bytes ``csv.writer``
writes (the references in ``test_io_writers``) for any records of the
numeric domain: ints, floats, both zeros and float subclasses; intervals
also take ``inf`` and ``nan``.  Each drawn record or row is followed by
twins whose numbers are equal but spelled differently (``-0.0`` for
``0.0``, ``3`` for ``3.0``, a float subclass for a float), so that the
writers' repr caches meet every pair they must keep apart.

Needs hypothesis; the module is skipped where it is not installed.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectorsched import Scenario, SurveillanceTask  # noqa: E402
from sectorsched import io as sio  # noqa: E402
from sectorsched.model import INT_LIMIT, TIME_RANGE, TRACE_LIMIT  # noqa: E402
from test_io_writers import (  # noqa: E402
    OddFloat,
    hand_revisits,
    hand_trace,
    reference_write_revisit_stats,
    reference_write_trace,
)

# Equal numbers with different spellings, and a repeated value.
POOL = (0.0, -0.0, 0, 3, 3.0, OddFloat(3.0), -3.0, 1e-05, OddFloat(0.0))


def _numbers(lo, hi, nonfinite=False):
    """Numbers in [lo, hi], or any float with ``nonfinite``: ints, floats and
    OddFloats, and the pool."""
    floats = (st.floats() if nonfinite else
              st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    return st.one_of(st.sampled_from(POOL), floats, floats.map(OddFloat),
                     st.integers(math.ceil(lo), math.floor(hi)))


def _respelled(x):
    """A number equal to ``x`` but spelled differently, where there is one."""
    if type(x) is not float:
        return float(x) if type(x) is int else float.__new__(float, x)
    if not x:
        return -x
    return int(x) if x.is_integer() else OddFloat(x)


def _ints(small):
    """Ints of the domain, mostly from ``range(small)`` so that runs repeat."""
    return st.one_of(st.integers(0, small - 1), st.integers(-INT_LIMIT + 1, INT_LIMIT - 1))


DURATIONS = st.one_of(st.integers(1, 100), st.floats(*TIME_RANGE),
                      st.floats(*TIME_RANGE).map(OddFloat))


@st.composite
def scenarios(draw):
    """Three tasks, ids 0-2, with drawn durations."""
    n = draw(st.integers(1, 8))
    return Scenario(n_sectors=n, fov_half_width=0, dt=10.0, resources=(5.0,) * n,
                    tasks=tuple(SurveillanceTask(tid, 0.5, 0.0, draw(DURATIONS))
                                for tid in range(3)))


TIMES = _numbers(-TRACE_LIMIT, TRACE_LIMIT)
RECORDS = st.lists(st.tuples(st.integers(0, 2), _ints(3), _ints(4), TIMES, TIMES), max_size=40)
INTERVALS = _numbers(-TRACE_LIMIT, TRACE_LIMIT, nonfinite=True)
REVISITS = st.lists(st.tuples(_ints(3), _ints(3), _ints(3), INTERVALS, INTERVALS), max_size=40)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scenarios(), RECORDS)
def test_trace_writer_matches_csv_writer(tmp_path_factory, scenario, records):
    work = tmp_path_factory.mktemp("trace")
    twins = [(tid, sector, p, _respelled(offset), stamp)
             for tid, sector, p, offset, stamp in records]
    trace = hand_trace([r for pair in zip(records, twins) for r in pair])
    sio.write_trace(trace, scenario, work / "ours")
    reference_write_trace(trace, scenario, work / "reference")
    assert (work / "ours").read_bytes() == (work / "reference").read_bytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(REVISITS)
def test_revisit_writer_matches_csv_writer(tmp_path_factory, rows):
    work = tmp_path_factory.mktemp("revisit")
    twins = [(row[:3] + (_respelled(row[3]), row[4]), row[:4] + (_respelled(row[4]),))
             for row in rows]
    stats = hand_revisits([r for row, pair in zip(rows, twins) for r in (row, *pair)])
    sio.write_revisit_stats(stats, work / "ours")
    reference_write_revisit_stats(stats, work / "reference")
    assert (work / "ours").read_bytes() == (work / "reference").read_bytes()
