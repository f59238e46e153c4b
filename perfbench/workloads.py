"""The benchmark's three workloads: inputs, the timed op, and output checks.

Each workload builds a pool of inputs from the run's seed, runs one op per
input, and checks the op's outputs with :mod:`refcheck`.  Ops call the
package through module attributes (``m.cli.main``, ``m.sim.simulate``) so
that the traced run's wrappers see every call.

* ``paper-cli``: N=30 scenarios with one hotspot each, fov 5 and 1, driven
  through ``sectorsched.cli.main`` the way the README chain runs:
  ``schedule``, then ``simulate --cycles 4`` for greedy, broadside and edf.
* ``fleet-compare``: N=360 sectors of 1 degree, fov 60 (the same +-60 degree
  steering as fov 5 at N=30), about 3.6k tasks, one starved hotspot and one
  dead sector; equalize, load report, 3-cycle partition and edf simulations
  and revisit statistics through the library.
* ``desk-exact``: N <= 6, <= 12 tasks, fov 1-2 with durations close to the
  resources, plus planted one-rotation bin-packing instances; the exact
  search under a fixed node budget, its validator, then greedy and edf.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io as stdio
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import refcheck as rc


class OpFailed(Exception):
    """An op ended in an error the program reported."""


@dataclass
class Item:
    scenario: object
    path: Path | None = None
    planted: bool = False

    @property
    def n_tasks(self) -> int:
        return len(self.scenario.tasks)

    @functools.cached_property
    def inst(self) -> rc.Instance:
        return instance_of(self.scenario)


@dataclass
class Quality:
    """Schedule-quality figures of one op's outputs."""

    max_rel_load: float
    worst_revisit_rot: float
    completion_pass: int
    edf_completion_pass: int
    window_bound: float


def instance_of(scenario) -> rc.Instance:
    return rc.instance(scenario.n_sectors, scenario.fov_half_width, scenario.dt,
                       scenario.resources,
                       ((t.id, t.phi, t.duration) for t in scenario.tasks))


def records_of(trace) -> list[rc.Record]:
    return [(r.pass_index, r.sector, r.task_id, r.start_offset, r.timestamp)
            for r in trace.records]


def _generated(m, params_kw: dict) -> Item:
    scenario = m.gen.generate(m.gen.GenParams(**params_kw))
    problems = m.model.validate_scenario(scenario)
    if problems:
        raise RuntimeError(f"generated an invalid scenario: {problems}")
    return Item(scenario=scenario)


def _check_partition_quality(inst: rc.Instance, assignments, relative) -> tuple[list, dict, float]:
    problems, sector_of = rc.check_partition(inst, assignments)
    if problems:
        return problems, sector_of, math.nan
    problems += rc.check_reported_loads(inst, sector_of, relative)
    max_rel = max(rc.relative_loads(inst, sector_of))
    return problems, sector_of, max_rel


def _check_run(inst: rc.Instance, records, cycles: int, sector_of, completion: int,
               label: str) -> tuple[list[str], int]:
    """Trace validity, reported completion pass and its capacity bound."""
    problems, derived = rc.check_trace(inst, records, cycles, sector_of)
    problems = [f"{label}: {p}" for p in problems]
    if derived != completion:
        problems.append(f"{label}: completion pass {completion}, records say {derived}")
    placement = sector_of if sector_of is not None else rc.first_cycle_sectors(inst, records)
    bound = rc.completion_bound(inst, placement)
    if derived < bound:
        problems.append(f"{label}: completion pass {derived} before capacity bound {bound}")
    return problems, derived


def _check_library_revisits(inst, trace, stats, label) -> tuple[list[str], float]:
    records = records_of(trace)
    stamps: dict[int, list[float]] = {tid: [] for tid in inst.duration}
    for _, _, tid, _, ts in records:
        stamps.setdefault(tid, []).append(ts)
    problems = []
    if any(tuple(trace.illumination.get(tid, ())) != tuple(ts) for tid, ts in stamps.items()):
        problems.append(f"{label}: illumination disagrees with records")
    reported = {tr.task_id: tr.max_interval_s for tr in stats.per_task}
    more, worst_rot = rc.check_revisits(inst, records, reported)
    problems += [f"{label}: {p}" for p in more]
    if not rc.close(stats.max_interval_rot, worst_rot):
        problems.append(f"{label}: worst revisit {stats.max_interval_rot!r}, "
                        f"recomputed {worst_rot!r}")
    return problems, worst_rot


# ------------------------------------------------------------------ paper-cli

class PaperCli:
    name = "paper-cli"
    PER_FOV = 100
    FOVS = (5, 1)
    CYCLES = 4
    POLICIES = ("greedy", "broadside", "edf")

    def build(self, m, seed: int, work: Path) -> list[Item]:
        rng = random.Random(seed)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        items = []
        for k in range(self.PER_FOV):
            for fov in self.FOVS:
                item = _generated(m, dict(n_sectors=30, fov_half_width=fov,
                                          seed=rng.getrandbits(32),
                                          hotspots=((rng.randrange(30), 0.5, 4.0),)))
                item.path = inputs / f"s{k}_fov{fov}.json"
                m.io.write_scenario(item.scenario, item.path)
                items.append(item)
        return items

    @staticmethod
    def _out(item: Item) -> Path:
        return item.path.parent.parent / "out"

    def op(self, m, item: Item):
        out = self._out(item)
        out.mkdir(exist_ok=True)
        scenario = str(item.path)
        calls = [["schedule", "--scenario", scenario, "--out", str(out / "p.json")]]
        calls += [["simulate", "--scenario", scenario, "--out", str(out / f"t_{pol}.csv"),
                   "--policy", pol, "--cycles", str(self.CYCLES)] for pol in self.POLICIES]
        printed = []
        for argv in calls:
            sink = stdio.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = m.cli.main(argv)
            if code != 0:
                raise OpFailed(f"sectorsched {' '.join(argv)} exited {code}: {sink.getvalue()}")
            printed.append(sink.getvalue())
        return dict(zip(("schedule", *self.POLICIES), printed))

    def check(self, item: Item, printed: dict) -> tuple[list[str], Quality]:
        out = self._out(item)
        inst = rc.instance_from_json(json.loads(item.path.read_text(encoding="utf-8")))
        partition = json.loads((out / "p.json").read_text(encoding="utf-8"))
        with open(out / "p.loads.csv", newline="", encoding="utf-8") as handle:
            relative = [float(row["relative_load"]) for row in csv.DictReader(handle)]
        problems, sector_of, max_rel = _check_partition_quality(
            inst, partition["assignments"], relative)
        if problems:
            return problems, None
        placements = {"greedy": sector_of, "broadside": dict(inst.home), "edf": None}
        completion = {}
        worst_rot = math.nan
        for pol in self.POLICIES:
            records, more = self._read_trace(inst, out / f"t_{pol}.csv")
            problems += [f"{pol}: {p}" for p in more]
            shown = re.search(r"completion pass (-?\d+)", printed[pol])
            more, completion[pol] = _check_run(inst, records, self.CYCLES, placements[pol],
                                               int(shown.group(1)) if shown else None, pol)
            problems += more
            with open(out / f"t_{pol}.revisit.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            reported = {int(r["task_id"]): float(r["interval_s"]) for r in rows}
            more, worst = rc.check_revisits(inst, records, reported)
            problems += [f"{pol} revisits: {p}" for p in more]
            rotation = inst.n * inst.dt
            if any(not rc.close(float(r["interval_rot"]), float(r["interval_s"]) / rotation)
                   for r in rows):
                problems.append(f"{pol} revisits: rotations disagree with seconds")
            if pol == "greedy":
                worst_rot = worst
        return problems, Quality(max_rel, worst_rot, completion["greedy"], completion["edf"],
                                 rc.window_bound(inst))

    @staticmethod
    def _read_trace(inst: rc.Instance, path: Path) -> tuple[list[rc.Record], list[str]]:
        records, problems = [], []
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                p, tid = int(row["pass"]), int(row["task_id"])
                if int(row["rotation"]) != p // inst.n:
                    problems.append(f"pass {p}: rotation column {row['rotation']}")
                if tid in inst.duration and float(row["duration"]) != inst.duration[tid]:
                    problems.append(f"task {tid}: duration column {row['duration']}")
                records.append((p, int(row["sector"]), tid, float(row["start_offset"]),
                                float(row["timestamp"])))
        return records, problems


# -------------------------------------------------------------- fleet-compare

class FleetCompare:
    name = "fleet-compare"
    SCENARIOS = 12
    N = 360
    FOV = 60
    CYCLES = 3

    def build(self, m, seed: int, work: Path) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for _ in range(self.SCENARIOS):
            gen_seed = rng.getrandbits(32)
            hot = rng.randrange(self.N)
            dead = (hot + rng.randrange(1, self.N)) % self.N
            items.append(_generated(m, dict(
                n_sectors=self.N, fov_half_width=self.FOV, seed=gen_seed,
                hotspots=((hot, 0.5, 4.0), (dead, 0.0, 1.0)))))
        return items

    def op(self, m, item: Item):
        sc = item.scenario
        partition = m.eq.equalize(sc)
        report = m.loads.load_report(sc, partition)
        greedy = m.sim.simulate(sc, "partition", partition, cycles=self.CYCLES)
        edf = m.sim.simulate(sc, "edf", None, cycles=self.CYCLES)
        return SimpleNamespace(
            partition=partition, report=report, greedy=greedy, edf=edf,
            greedy_revisits=m.sim.revisit_stats(greedy, sc),
            edf_revisits=m.sim.revisit_stats(edf, sc))

    def check(self, item: Item, out) -> tuple[list[str], Quality]:
        return _check_library_plan(item.inst, out, self.CYCLES)


def _check_library_plan(inst: rc.Instance, out, cycles: int) -> tuple[list[str], Quality]:
    problems, sector_of, max_rel = _check_partition_quality(
        inst, out.partition.assignments, [float(x) for x in out.report.relative_load])
    if problems:
        return problems, None
    if not rc.close(out.report.max_relative_load, max_rel):
        problems.append(f"max relative load {out.report.max_relative_load!r}, "
                        f"recomputed {max_rel!r}")
    more, greedy_done = _check_run(inst, records_of(out.greedy), cycles, sector_of,
                                   out.greedy.completion_pass, "greedy")
    problems += more
    more, edf_done = _check_run(inst, records_of(out.edf), cycles, None,
                                out.edf.completion_pass, "edf")
    problems += more
    more, worst_rot = _check_library_revisits(inst, out.greedy, out.greedy_revisits, "greedy")
    problems += more
    if getattr(out, "edf_revisits", None) is not None:
        problems += _check_library_revisits(inst, out.edf, out.edf_revisits, "edf")[0]
    return problems, Quality(max_rel, worst_rot, greedy_done, edf_done, rc.window_bound(inst))


# ----------------------------------------------------------------- desk-exact

class DeskExact:
    name = "desk-exact"
    INSTANCES = 2000
    PLANTED_EVERY = 4   # every fourth instance is a planted bin packing
    NODE_BUDGET = 5_000
    CYCLES = 3

    def build(self, m, seed: int, work: Path) -> list[Item]:
        rng = random.Random(seed)
        items = []
        while len(items) < self.INSTANCES:
            item = (self._planted(m, rng) if len(items) % self.PLANTED_EVERY == 0
                    else self._random(m, rng))
            if item is not None:
                items.append(item)
        return items

    @staticmethod
    def _random(m, rng: random.Random) -> Item | None:
        item = _generated(m, dict(
            n_sectors=rng.randint(4, 6), fov_half_width=rng.randint(1, 2),
            tasks_per_sector=(1, 3), duration=(2.0, 5.0), resources=(4.0, 7.0),
            seed=rng.getrandbits(32)))
        # Keep only instances inside the solver's limits that a first-fit
        # plan covers within its five rotations, so no op can fail on them.
        if len(item.inst.duration) > 12 or not _first_fit_covers(item.inst, 5):
            return None
        return item

    @staticmethod
    def _planted(m, rng: random.Random) -> Item:
        """Items cut from the bins, so one rotation can hold them all."""
        caps = [rng.uniform(4.0, 7.0) for _ in range(rng.randint(3, 6))]
        items: list[float] = []
        for k, cap in enumerate(caps):
            room = 12 - len(items) - (len(caps) - k - 1)
            cuts = sorted(rng.uniform(0.15, 0.85) * cap
                          for _ in range(min(rng.randint(0, 2), room - 1)))
            edges = [0.0, *cuts, cap]
            items += [b - a for a, b in zip(edges, edges[1:])]
        rng.shuffle(items)
        scenario = m.exact.bin_packing_reduce(items, caps)
        return Item(scenario=scenario, planted=True)

    def op(self, m, item: Item):
        sc = item.scenario
        solution = m.exact.exact_min_passes(
            sc, m.exact.SearchLimits(node_budget=self.NODE_BUDGET))
        rejected = m.exact.check_assignment(sc, solution.assignments)
        if rejected:
            raise OpFailed(f"check_assignment rejected the exact plan: {rejected}")
        partition = m.eq.equalize(sc)
        report = m.loads.load_report(sc, partition)
        greedy = m.sim.simulate(sc, "partition", partition, cycles=self.CYCLES)
        edf = m.sim.simulate(sc, "edf", None, cycles=self.CYCLES)
        return SimpleNamespace(
            solution=solution, partition=partition, report=report, greedy=greedy,
            edf=edf, greedy_revisits=m.sim.revisit_stats(greedy, sc))

    def check(self, item: Item, out) -> tuple[list[str], Quality]:
        inst = item.inst
        sol = out.solution
        problems = rc.check_exact(inst, sol.assignments, sol.objective, sol.optimal,
                                  item.planted)
        more, quality = _check_library_plan(inst, out, self.CYCLES)
        problems += more
        if quality is not None and sol.optimal:
            for label, trace in (("greedy", out.greedy), ("edf", out.edf)):
                if (not _overfilled(inst, records_of(trace))
                        and sol.objective > trace.completion_pass):
                    problems.append(f"proven objective {sol.objective} above {label} "
                                    f"completion pass {trace.completion_pass}")
        return problems, quality


def _overfilled(inst: rc.Instance, records) -> bool:
    load: dict[int, float] = {}
    for p, _, tid, _, _ in records:
        load[p] = load.get(p, 0.0) + inst.duration[tid]
    return any(used > inst.resources[p % inst.n] + rc.SLACK for p, used in load.items())


def _first_fit_covers(inst: rc.Instance, rotations: int) -> bool:
    """Whether longest-first first-fit places every task in the horizon."""
    residual = [inst.resources[p % inst.n] for p in range(rotations * inst.n)]
    for tid in sorted(inst.duration, key=lambda t: (-inst.duration[t], t)):
        dur = inst.duration[tid]
        for p, room in enumerate(residual):
            if inst.distance(p % inst.n, inst.home[tid]) <= inst.fov and dur <= room + rc.SLACK:
                residual[p] -= dur
                break
        else:
            return False
    return True


WORKLOADS = {w.name: w for w in (PaperCli(), FleetCompare(), DeskExact())}
