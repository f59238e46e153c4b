"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to see them).
Random inputs are drawn from the package's own portable generator, so every
run exercises the identical instances.
"""

import csv
import math
import time
from contextlib import contextmanager

import pytest

from sectorsched import (
    CAP_SLACK,
    GenParams,
    PROVENANCE_LEFTOVER,
    POLICY_EDF,
    POLICY_PARTITION,
    SearchLimits,
    Xorshift64Star,
    broadside_baseline,
    check_assignment,
    check_partition,
    check_trace,
    equalize,
    exact_min_passes,
    generate,
    load_report,
    maximal_subset,
    measure_resources,
    sector_targets,
    simulate,
)
from sectorsched import io as sio
from sectorsched.cli import main as cli_main
from sectorsched.exact import bin_packing_reduce
from conftest import scenario_from

from test_equalize import tasks_of
from test_exact import brute_force_bin_packing


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({name}): FAIL")
        raise
    print(f"criterion {number:02d} ({name}): PASS")


@pytest.fixture(scope="module")
def corpus():
    """1,000 seeded scenarios with their equalized partitions, timed."""
    meta = Xorshift64Star(909)
    pairs = []
    started = time.perf_counter()
    for k in range(1000):
        n = 1 + meta.randint(0, 39)
        fov = meta.randint(0, n // 2)
        scenario = generate(GenParams(
            n_sectors=n, fov_half_width=fov, tasks_per_sector=(1, 6), seed=k))
        pairs.append((scenario, equalize(scenario)))
    elapsed = time.perf_counter() - started
    return pairs, elapsed


def test_criterion_1_partition_validity(corpus):
    with criterion(1, "partition validity on 1000 scenarios"):
        pairs, elapsed = corpus
        violations = []
        for scenario, partition in pairs:
            violations.extend(check_partition(scenario, partition))
        assert violations == []
        assert elapsed < 10.0, f"equalization corpus took {elapsed:.2f}s"


def test_criterion_2_maximality_oracle():
    with criterion(2, "maximal subset vs exhaustive enumeration"):
        rng = Xorshift64Star(515)
        failures = 0
        for _ in range(500):
            count = 1 + rng.randint(0, 11)
            durations = [0.1 + rng.uniform() * 4.0 for _ in range(count)]
            budget = rng.uniform() * 9.0
            used = rng.uniform() * budget if budget > 0 else 0.0
            picked = set(maximal_subset(tasks_of(durations, n_sectors=4),
                                        budget, already_used=used))
            total = used + math.fsum(durations[i] for i in picked)
            feasible = not picked or total <= budget + CAP_SLACK
            maximal = all(total + durations[i] > budget + CAP_SLACK
                          for i in range(count) if i not in picked)
            # exhaustive subset scan: no feasible strict superset
            for mask in range(1 << count):
                subset = {i for i in range(count) if mask >> i & 1}
                if subset > picked and used + math.fsum(
                        durations[i] for i in subset) <= budget + CAP_SLACK:
                    maximal = False
                    break
            if not (feasible and maximal):
                failures += 1
        assert failures == 0


def test_criterion_3_cap_before_leftovers(corpus):
    with criterion(3, "pre-leftover loads within targets"):
        pairs, _ = corpus
        for scenario, partition in pairs:
            targets = sector_targets(scenario).targets
            by_id = scenario.task_by_id()
            for i, ids in enumerate(partition.assignments):
                capped = math.fsum(
                    by_id[t].duration for t in ids
                    if partition.provenance[t] != PROVENANCE_LEFTOVER)
                assert capped <= targets[i] + 1e-9


def test_criterion_4_lower_bound_and_conservation(corpus):
    with criterion(4, "relative-load lower bound and conservation"):
        pairs, _ = corpus
        for scenario, partition in pairs:
            if not scenario.tasks:
                continue
            total = math.fsum(t.duration for t in scenario.tasks)
            for part in (partition, broadside_baseline(scenario)):
                report = load_report(scenario, part)
                assert report.max_relative_load >= 1.0 - 1e-9
                assert math.fsum(report.absolute_load) == pytest.approx(total, rel=1e-9)


def test_criterion_5_exact_oracle_dominance():
    with criterion(5, "exact objective never above greedy completion"):
        meta = Xorshift64Star(626)
        started = time.perf_counter()
        for k in range(200):
            n = 1 + meta.randint(0, 4)
            scenario = generate(GenParams(
                n_sectors=n, fov_half_width=meta.randint(0, n // 2),
                tasks_per_sector=(1, 2), duration=(0.5, 4.0),
                resources=(4.5, 10.0), seed=10_000 + k))
            solution = exact_min_passes(scenario, SearchLimits())
            assert solution.optimal
            assert check_assignment(scenario, solution.assignments) == []
            if scenario.tasks:
                trace = simulate(scenario, POLICY_PARTITION, equalize(scenario),
                                 cycles=1)
                assert solution.objective <= trace.completion_pass
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"exact dominance sweep took {elapsed:.2f}s"


def test_criterion_6_bin_packing_reduction():
    with criterion(6, "one-rotation feasibility matches bin packing"):
        cases = [([4.0, 3.0, 2.0, 1.0], [5.0, 5.0]),
                 ([3.0, 3.0, 3.0], [5.0, 5.0])]
        rng = Xorshift64Star(737)
        while len(cases) < 50:
            bins = 2 + rng.randint(0, 2)
            caps = [4.0 + rng.uniform() * 8.0 for _ in range(bins)]
            sizes = [0.5 + rng.uniform() * (max(caps) - 0.5)
                     for _ in range(2 + rng.randint(0, 5))]
            cases.append((sizes, caps))
        mismatches = 0
        for sizes, caps in cases:
            scenario = bin_packing_reduce(sizes, caps)
            via_solver = exact_min_passes(scenario).objective < len(caps)
            via_enumerator = brute_force_bin_packing(sizes, caps)
            if via_solver != via_enumerator:
                mismatches += 1
        assert mismatches == 0
        assert brute_force_bin_packing(*cases[0])
        assert not brute_force_bin_packing(*cases[1])


def test_criterion_7_simulator_constraints():
    with criterion(7, "traces satisfy capacity, FOV, once per cycle"):
        meta = Xorshift64Star(848)
        violations = []
        for k in range(200):
            n = 2 + meta.randint(0, 8)
            scenario = generate(GenParams(
                n_sectors=n, fov_half_width=meta.randint(0, n // 2),
                tasks_per_sector=(1, 4), seed=20_000 + k))
            partition = equalize(scenario)
            traces = [
                simulate(scenario, POLICY_PARTITION, partition, cycles=2),
                simulate(scenario, POLICY_PARTITION, broadside_baseline(scenario),
                         cycles=2),
                simulate(scenario, POLICY_EDF, None, cycles=2),
            ]
            for trace in traces:
                violations.extend(check_trace(scenario, trace))
        assert violations == []


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "seeded commands are byte-identical"):
        outputs = []
        for tag in ("first", "second"):
            d = tmp_path / tag
            d.mkdir()
            scenario = d / "s.json"
            assert cli_main(["gen", "--seed", "421", "--out", str(scenario),
                             "--sectors", "18", "--fov", "3"]) == 0
            assert cli_main(["schedule", "--scenario", str(scenario),
                             "--out", str(d / "p.json")]) == 0
            assert cli_main(["simulate", "--scenario", str(scenario),
                             "--out", str(d / "t.csv"), "--cycles", "3"]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) == {"s.json", "p.json", "p.loads.csv",
                                   "t.csv", "t.revisit.csv"}


def _hotspot_instance(seed):
    """One overloaded sector at twice its target, neighbors with the slack."""
    rng = Xorshift64Star(seed)
    n = 5 + rng.randint(0, 15)
    hot = rng.randint(0, n - 1)
    tau = 4.0 + rng.uniform() * 12.0
    resource = 8.0 + rng.uniform() * 7.0
    pieces = 4 + rng.randint(0, 4)
    left, right = (hot - 1) % n, (hot + 1) % n
    homes = []
    for k in range(n):
        if k == hot:
            homes.extend([(k, 2.0 * tau / pieces)] * pieces)
        elif k in (left, right):
            homes.append((k, tau / 2.0))
        else:
            homes.extend([(k, tau / 2.0)] * 2)
    return scenario_from(n, 1, 20.0, [resource] * n, homes), hot


def test_criterion_9_equalization_benefit():
    with criterion(9, "greedy beats broadside on 100 hotspot scenarios"):
        wins = 0
        for seed in range(100):
            scenario, hot = _hotspot_instance(30_000 + seed)
            greedy = load_report(scenario, equalize(scenario))
            trivial = load_report(scenario, broadside_baseline(scenario))
            assert trivial.max_relative_load == pytest.approx(2.0)
            if greedy.max_relative_load < trivial.max_relative_load:
                wins += 1
            assert greedy.absolute_load[hot] <= trivial.absolute_load[hot]
        assert wins == 100


def test_criterion_10_fov_sensitivity(tmp_path):
    with criterion(10, "narrow FOV never equalizes better on average"):
        import dataclasses

        wide, narrow = [], []
        for seed in range(100):
            scenario5 = generate(GenParams(n_sectors=30, fov_half_width=5,
                                           seed=40_000 + seed))
            scenario1 = dataclasses.replace(scenario5, fov_half_width=1)
            wide.append(load_report(scenario5, equalize(scenario5)).max_relative_load)
            narrow.append(load_report(scenario1, equalize(scenario1)).max_relative_load)
        mean_wide = sum(wide) / len(wide)
        mean_narrow = sum(narrow) / len(narrow)
        bench = tmp_path / "fov_benchmark.csv"
        with open(bench, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["fov_half_width", "runs", "mean_max_relative_load"])
            writer.writerow([5, len(wide), repr(mean_wide)])
            writer.writerow([1, len(narrow), repr(mean_narrow)])
        assert mean_narrow >= mean_wide
        with open(bench, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["fov_half_width"] for r in rows} == {"1", "5"}
        assert all(float(r["mean_max_relative_load"]) >= 1.0 for r in rows)


def _last_cycle_sector_passes(scenario, trace):
    """Distinct passes per sector used by the final complete cycle."""
    all_ids = {t.id for t in scenario.tasks}
    cycles, current, seen = [], [], set()
    for rec in trace.records:
        current.append(rec)
        seen.add(rec.task_id)
        if seen == all_ids:
            cycles.append(current)
            current, seen = [], set()
    passes_by_sector = {}
    for rec in cycles[-1]:
        passes_by_sector.setdefault(rec.sector, set()).add(rec.pass_index)
    return max(len(passes) for passes in passes_by_sector.values())


def test_criterion_11_worst_sector_decides_revisit():
    with criterion(11, "steady revisit bracketed by load bound and passes used"):
        meta = Xorshift64Star(959)
        for k in range(200):
            n = 3 + meta.randint(0, 9)
            scenario = generate(GenParams(
                n_sectors=n, fov_half_width=meta.randint(0, n // 2),
                tasks_per_sector=(1, 5), seed=50_000 + k))
            partition = equalize(scenario)
            report = load_report(scenario, partition)
            trace = simulate(scenario, POLICY_PARTITION, partition, cycles=5)
            steady_worst = max(
                times[-1] - times[-2] for times in trace.illumination.values()
            ) / scenario.rotation_time
            assert steady_worst >= report.rotations_to_complete_bound - 1e-9
            assert steady_worst <= _last_cycle_sector_passes(scenario, trace) + 1e-9


def test_criterion_12_starvation_exhibit():
    with criterion(12, "shipped fixture shows a starved sector, still valid"):
        from pathlib import Path

        scenario = sio.read_scenario(Path(__file__).parent / "fixtures"
                                     / "starvation.json")
        partition = equalize(scenario)
        assert check_partition(scenario, partition) == []
        home = scenario.home
        sector_of = partition.sector_index()
        starved = [
            i for i, ids in enumerate(partition.assignments)
            if ids and all(home[t] != i for t in ids)
            and all(sector_of[t] != i for t in home if home[t] == i)
        ]
        assert starved, "no sector executes only neighbors' tasks"
        report = load_report(scenario, partition)
        assert report.max_relative_load >= 1.0 - 1e-9


def test_criterion_13_resource_estimator():
    with criterion(13, "estimator fixed point and passthrough"):
        # constant load after an off-equilibrium start converges to dt - used
        observations = [0.9] + [0.3] * 100
        estimate = measure_resources(observations, 1, 1.0, 0.25)
        assert abs(estimate[0] - 0.7) <= 1e-9
        # alpha = 1 reproduces the latest observation exactly
        estimate = measure_resources([0.8, 0.2, 0.55], 1, 1.0, 1.0)
        assert estimate[0] == pytest.approx(0.45, abs=1e-12)
