"""Reference checks for sectorsched outputs, computed apart from the package.

Every check works on plain data (sector count, field of view, resources,
task durations and azimuths, execution records as tuples) and re-derives
what it checks from the problem statement, so a fault in the package cannot
vouch for itself.  Nothing here imports sectorsched.  The LP bound imports
scipy when it is called; the package itself never depends on scipy.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Absolute capacity slack of the scheduling semantics (``CAP_SLACK``).
SLACK = 1e-9
# Relative tolerance for sums re-derived here in another order.
REL_TOL = 1e-9
# Relative tolerance for comparisons against the LP solver's optimum.
LP_TOL = 1e-6

# One execution: (pass index, sector, task id, start offset, timestamp).
Record = tuple[int, int, int, float, float]


@dataclass(frozen=True)
class Instance:
    """A scenario as plain data; home sectors are derived from azimuths here."""

    n: int
    fov: int
    dt: float
    resources: tuple[float, ...]
    duration: Mapping[int, float]
    home: Mapping[int, int]

    @property
    def total_demand(self) -> float:
        return math.fsum(self.duration.values())

    def distance(self, a: int, b: int) -> int:
        d = (a - b) % self.n
        return min(d, self.n - d)

    def reachable(self, home: int) -> list[int]:
        """Sectors within the field of view of a home sector."""
        return sorted({(home + c) % self.n for c in range(-self.fov, self.fov + 1)})


def instance(n_sectors: int, fov_half_width: int, dt: float,
             resources: Sequence[float],
             tasks: Iterable[tuple[int, float, float]]) -> Instance:
    """Build an :class:`Instance` from (id, azimuth, duration) triples.

    The home sector is floor(phi / 2pi * N), with the same 1e-9 tolerance
    below a sector boundary that the semantics prescribe, and the field of
    view is clamped to N // 2 because a wider one reaches no further.
    """
    duration: dict[int, float] = {}
    home: dict[int, int] = {}
    for tid, phi, dur in tasks:
        duration[tid] = float(dur)
        home[tid] = min(math.floor(phi / (2.0 * math.pi) * n_sectors + 1e-9), n_sectors - 1)
    return Instance(n=n_sectors, fov=min(fov_half_width, n_sectors // 2), dt=float(dt),
                    resources=tuple(float(r) for r in resources),
                    duration=duration, home=home)


def instance_from_json(payload: Mapping) -> Instance:
    """Instance from the scenario file layout."""
    return instance(payload["n_sectors"], payload["fov_half_width"], payload["dt"],
                    payload["resources"],
                    ((t["id"], t["phi"], t["duration"]) for t in payload["tasks"]))


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    """Equal within a relative tolerance; an infinity equals only itself."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- partitions

def check_partition(inst: Instance, assignments: Sequence[Sequence[int]]
                    ) -> tuple[list[str], dict[int, int]]:
    """Completeness, FOV and dead-sector rules of a partition.

    Returns the problems and the task -> executing sector map.
    """
    problems: list[str] = []
    if len(assignments) != inst.n:
        return [f"partition has {len(assignments)} sectors, expected {inst.n}"], {}
    sector_of: dict[int, int] = {}
    for sector, ids in enumerate(assignments):
        for tid in ids:
            if tid in sector_of:
                problems.append(f"task {tid} assigned twice")
                continue
            sector_of[tid] = sector
            if tid not in inst.home:
                problems.append(f"unknown task {tid}")
            elif inst.distance(sector, inst.home[tid]) > inst.fov:
                problems.append(f"task {tid} placed outside its field of view")
            elif inst.resources[sector] <= 0.0:
                problems.append(f"task {tid} placed on zero-resource sector {sector}")
    missing = sorted(set(inst.home) - set(sector_of))
    if missing:
        problems.append(f"tasks never assigned: {missing[:10]}")
    return problems, sector_of


def sector_loads(inst: Instance, sector_of: Mapping[int, int]) -> list[float]:
    buckets: list[list[float]] = [[] for _ in range(inst.n)]
    for tid, sector in sector_of.items():
        buckets[sector].append(inst.duration[tid])
    return [math.fsum(b) for b in buckets]


def relative_loads(inst: Instance, sector_of: Mapping[int, int]) -> list[float]:
    """Load over fair-share target r * R_j, r = total demand / total resources."""
    total_r = math.fsum(inst.resources)
    ratio = inst.total_demand / total_r if total_r > 0 else math.inf
    out = []
    for load, res in zip(sector_loads(inst, sector_of), inst.resources):
        target = ratio * res
        out.append(load / target if target > 0 else (0.0 if load == 0 else math.inf))
    return out


def check_reported_loads(inst: Instance, sector_of: Mapping[int, int],
                         reported: Sequence[float]) -> list[str]:
    """The program's per-sector relative loads against a recomputation."""
    expected = relative_loads(inst, sector_of)
    if len(reported) != len(expected):
        return [f"{len(reported)} relative loads reported, expected {len(expected)}"]
    return [f"sector {j}: relative load {got!r}, recomputed {want!r}"
            for j, (got, want) in enumerate(zip(reported, expected))
            if not close(got, want)]


def window_bound(inst: Instance) -> float:
    """Lower bound on the max relative load of any complete partition.

    For every arc A of home sectors, the demand D(A) homed there can only run
    in A widened by the field of view, so some sector of that window carries
    relative load at least D(A) / (r * R(A +- fov)).  The full circle gives 1.
    """
    demand = inst.total_demand
    if demand == 0.0:
        return 0.0
    n, f = inst.n, inst.fov
    d_home = np.zeros(n)
    for tid, h in inst.home.items():
        d_home[h] += inst.duration[tid]
    res = np.asarray(inst.resources, dtype=float)
    r = demand / res.sum()
    d_cum = np.concatenate(([0.0], np.cumsum(np.tile(d_home, 3))))
    r_cum = np.concatenate(([0.0], np.cumsum(np.tile(res, 3))))
    starts = np.arange(n) + n
    best = 0.0
    for length in range(1, n + 1):
        d = d_cum[starts + length] - d_cum[starts]
        width = min(length + 2 * f, n)
        lo = starts - f if length + 2 * f < n else starts
        cap = r_cum[lo + width] - r_cum[lo]
        if np.any((d > 0) & (cap <= 0)):
            return math.inf
        live = cap > 0
        if live.any():
            best = max(best, float(np.max(d[live] / (r * cap[live]))))
    return best


def lp_bound(inst: Instance, max_vars: int = 5000) -> float | None:
    """LP relaxation of min max-relative-load, or None when it is too large.

    Tasks homed in the same sector are interchangeable once divisible, so
    the variables are flows x[h, j] from home h to reachable live sector j.
    Solved with scipy's HiGHS.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    demand = inst.total_demand
    if demand == 0.0:
        return 0.0
    d_home: dict[int, float] = {}
    for tid, h in inst.home.items():
        d_home[h] = d_home.get(h, 0.0) + inst.duration[tid]
    r = demand / math.fsum(inst.resources)
    pairs = [(h, j) for h in sorted(d_home) for j in inst.reachable(h)
             if inst.resources[j] > 0]
    if len(pairs) + 1 > max_vars:
        return None
    z = len(pairs)
    homes = sorted(d_home)
    home_row = {h: k for k, h in enumerate(homes)}
    live = [j for j in range(inst.n) if inst.resources[j] > 0]
    live_row = {j: k for k, j in enumerate(live)}
    eq_rows, eq_cols = zip(*((home_row[h], k) for k, (h, _) in enumerate(pairs)))
    a_eq = coo_matrix((np.ones(z), (eq_rows, eq_cols)), shape=(len(homes), z + 1))
    ub_rows = [live_row[j] for _, j in pairs] + list(range(len(live)))
    ub_cols = list(range(z)) + [z] * len(live)
    ub_vals = [1.0] * z + [-r * inst.resources[j] for j in live]
    a_ub = coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(live), z + 1))
    cost = np.zeros(z + 1)
    cost[z] = 1.0
    res = linprog(cost, A_ub=a_ub.tocsr(), b_ub=np.zeros(len(live)),
                  A_eq=a_eq.tocsr(), b_eq=[d_home[h] for h in homes],
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP bound failed: {res.message}")
    return float(res.fun)


def check_load_bounds(inst: Instance, max_rel: float, window: float | None = None,
                      with_lp: bool = True) -> tuple[list[str], float]:
    """A max relative load against the window bound and, if small, the LP.

    The LP can only be stronger than the window bound, so it is checked
    against it as well.  Returns the problems and the best bound.
    """
    window = window_bound(inst) if window is None else window
    problems = []
    if max_rel < window * (1 - REL_TOL):
        problems.append(f"max relative load {max_rel!r} below the window bound {window!r}")
    lp = lp_bound(inst) if with_lp else None
    if lp is None:
        return problems, window
    if lp < window * (1 - LP_TOL):
        problems.append(f"LP bound {lp!r} below the window bound {window!r}")
    if max_rel < lp * (1 - LP_TOL):
        problems.append(f"max relative load {max_rel!r} below the LP bound {lp!r}")
    return problems, max(window, lp)


# -------------------------------------------------------------------- traces

def _oversized(inst: Instance, tid: int, sectors: Iterable[int]) -> bool:
    dur = inst.duration[tid]
    return all(dur > inst.resources[j] + SLACK for j in sectors)


def check_trace(inst: Instance, records: Sequence[Record], cycles: int,
                sector_of: Mapping[int, int] | None = None
                ) -> tuple[list[str], int]:
    """Re-derive a trace's validity from its records alone.

    ``sector_of`` pins each task to one sector (partition policies); None
    lets a task run in any sector of its field of view (edf).  Checks pass
    order, sector = pass mod N, FOV by plain mod-N distance, start offsets
    and timestamps, pass capacity, and that every task runs exactly once per
    cycle with each new cycle starting at the pass after the previous one
    completed.  A pass over capacity is accepted only when it holds a single
    task that fits no pass it may run in.  Returns the problems and the
    first cycle's completion pass.
    """
    problems: list[str] = []
    n = inst.n
    load: dict[int, float] = {}
    members: dict[int, list[int]] = {}
    previous = (-1, -math.inf)
    offset = 0.0
    for p, sector, tid, start, ts in records:
        if (p, start) < previous:
            problems.append(f"records out of order at pass {p}")
        if p != previous[0]:
            offset = 0.0
        previous = (p, start)
        if sector != p % n:
            problems.append(f"pass {p} recorded in sector {sector}")
        if tid not in inst.home:
            problems.append(f"unknown task {tid} in pass {p}")
            continue
        if inst.distance(sector, inst.home[tid]) > inst.fov:
            problems.append(f"task {tid} ran outside its field of view in pass {p}")
        if sector_of is not None and sector_of.get(tid) != sector:
            problems.append(f"task {tid} ran in sector {sector}, assigned {sector_of.get(tid)}")
        if not close(start, offset):
            problems.append(f"task {tid} in pass {p}: offset {start!r}, expected {offset!r}")
        if not close(ts, p * inst.dt + start):
            problems.append(f"task {tid} in pass {p}: timestamp {ts!r} inconsistent")
        offset += inst.duration[tid]
        load[p] = load.get(p, 0.0) + inst.duration[tid]
        members.setdefault(p, []).append(tid)
    for p, used in load.items():
        if used <= inst.resources[p % n] + SLACK:
            continue
        tids = members[p]
        allowed = ([sector_of.get(tids[0], p % n)] if sector_of is not None
                   else inst.reachable(inst.home[tids[0]]))
        if len(tids) != 1 or not _oversized(inst, tids[0], allowed):
            problems.append(f"pass {p} uses {used!r} of {inst.resources[p % n]!r}")

    all_ids = set(inst.home)
    current: set[int] = set()
    done = 0
    completion = -1
    last_end = -1
    for p, _, tid, _, _ in records:
        if not current and done and p <= last_end:
            problems.append(f"cycle {done} starts in pass {p}, previous ended in {last_end}")
        if tid in current:
            problems.append(f"task {tid} ran twice in one cycle (pass {p})")
            continue
        current.add(tid)
        if current == all_ids:
            done += 1
            last_end = p
            if completion < 0:
                completion = p
            current = set()
    if current:
        problems.append(f"{len(current)} executions after the last complete cycle")
    if done != cycles:
        problems.append(f"{done} complete cycles, expected {cycles}")
    return problems, completion


def first_cycle_sectors(inst: Instance, records: Sequence[Record]) -> dict[int, int]:
    """Task -> sector of its first execution."""
    out: dict[int, int] = {}
    for _, sector, tid, _, _ in records:
        out.setdefault(tid, sector)
    return out


def completion_bound(inst: Instance, sector_of: Mapping[int, int]) -> int:
    """Earliest pass a first cycle run on this placement can complete in.

    Sector j's load L_j needs at least ceil(L_j / R_j) of its passes (one
    per oversized task, which runs alone), and its k-th pass has index
    j + (k - 1) N.  With no oversized task, the total demand also needs
    the prefix of passes whose resources cover it.
    """
    n = inst.n
    by_sector: dict[int, list[float]] = {}
    for tid, sector in sector_of.items():
        by_sector.setdefault(sector, []).append(inst.duration[tid])
    bound = -1
    any_oversized = False
    for j, durs in by_sector.items():
        res = inst.resources[j]
        big = [d for d in durs if d > res + SLACK]
        any_oversized = any_oversized or bool(big)
        rest = math.fsum(d for d in durs if d <= res + SLACK)
        passes = len(big) + (math.ceil(rest / (res + SLACK) - 1e-9) if rest > 0 else 0)
        bound = max(bound, j + (max(passes, 1) - 1) * n)
    if not any_oversized and sector_of and math.fsum(inst.resources) > 0:
        demand = math.fsum(inst.duration[tid] for tid in sector_of)
        covered = 0.0
        p = 0
        while covered + (p + 1) * SLACK < demand * (1 - REL_TOL):
            covered += inst.resources[p % n]
            p += 1
        bound = max(bound, p - 1)
    return bound


# ------------------------------------------------------------------ revisits

def worst_intervals(records: Sequence[Record]) -> dict[int, float]:
    """Each task's longest gap between consecutive illuminations, seconds."""
    last: dict[int, float] = {}
    worst: dict[int, float] = {}
    for _, _, tid, _, ts in records:
        if tid in last:
            worst[tid] = max(worst.get(tid, 0.0), ts - last[tid])
        last[tid] = ts
    return worst


def check_revisits(inst: Instance, records: Sequence[Record],
                   reported: Mapping[int, float]) -> tuple[list[str], float]:
    """Reported per-task worst intervals (seconds) against the records.

    Returns the problems and the worst interval in rotations.
    """
    expected = worst_intervals(records)
    problems: list[str] = []
    if set(reported) != set(inst.home) or set(expected) != set(inst.home):
        problems.append("revisit intervals do not cover every task exactly")
    for tid, want in expected.items():
        got = reported.get(tid)
        if got is not None and not close(got, want):
            problems.append(f"task {tid}: worst interval {got!r}, recomputed {want!r}")
    worst = max(expected.values(), default=0.0)
    return problems, worst / (inst.n * inst.dt)


# ---------------------------------------------------------------- exact plans

def check_exact(inst: Instance, assignments: Mapping[int, tuple[int, int]],
                objective: int, optimal: bool, one_rotation: bool = False) -> list[str]:
    """A (sector, rotation) plan: coverage, FOV, pass capacity, objective.

    ``one_rotation`` marks a planted bin-packing instance whose items were
    cut from the bins, so a plan inside the first rotation exists and a
    proven optimum must lie there.  A plan found when the node budget ran
    out (``optimal`` False) only has to be valid.
    """
    problems: list[str] = []
    missing = sorted(set(inst.home) - set(assignments))
    if missing:
        problems.append(f"tasks never assigned: {missing}")
    load: dict[int, float] = {}
    for tid, (sector, rotation) in assignments.items():
        if tid not in inst.home:
            problems.append(f"unknown task {tid}")
            continue
        if not 0 <= sector < inst.n or rotation < 0:
            problems.append(f"task {tid}: pass ({sector}, {rotation}) out of range")
            continue
        if inst.distance(sector, inst.home[tid]) > inst.fov:
            problems.append(f"task {tid} planned outside its field of view")
        p = rotation * inst.n + sector
        load[p] = load.get(p, 0.0) + inst.duration[tid]
    for p, used in load.items():
        if used > inst.resources[p % inst.n] + SLACK:
            problems.append(f"pass {p} planned with {used!r} of {inst.resources[p % inst.n]!r}")
    if load and objective != max(load):
        problems.append(f"objective {objective}, last planned pass {max(load)}")
    if load and objective < completion_bound(inst, {t: s for t, (s, _) in assignments.items()
                                                    if t in inst.home}):
        problems.append(f"objective {objective} below the capacity bound")
    if one_rotation and optimal and objective >= inst.n:
        problems.append(f"planted one-rotation instance solved with objective {objective}")
    return problems
