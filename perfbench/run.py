"""sectorsched benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload fleet-compare --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run imports the package from ``src/``
(never an installed copy), builds the workload's inputs from ``--seed``,
then runs whole rounds over the input pool in one thread, each op starting
when the previous one ends, until ``--seconds`` have passed.  The first
round's outputs are checked by :mod:`refcheck`; the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
spans with ``--trace 1``).

Times are reported at a reference machine speed.  A shared host drifts
between speed states (25-30 % apart, for seconds to minutes at a time, on
a 2-core VM), and every workload slows with it.  So a fixed pure-Python loop that does not
touch the package (:class:`Calibration`) is timed after each set-up step
and each op, and each time metric is scaled by ``CALIBRATION_REF_S`` over
the median loop time measured alongside it.  A slower program still reads
slower; a slower machine reads the same.

``--repeat K`` runs K such processes on seeds seed..seed+K-1 and prints each
metric's median and inter-quartile spread; ``--save FILE`` keeps that set
and ``--against FILE`` compares it with a saved one, metric by metric,
against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import refcheck as rc  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or build
# does not decide the figure.
SETUP_REPEATS = 3
# The LP bound costs milliseconds per input and adds nothing on top of the
# window bound on these instances, so it runs on the first inputs only.
LP_INPUTS = 100
END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "tasks_per_s": "tasks/s", "peak_rss_mb": "MB",
    "max_rel_load": "ratio", "worst_revisit_rot": "rot", "completion_pass": "passes",
    "edf_completion_pass": "passes",
}
# The calibration loop's time at the reference speed, and the time spent
# calibrating as a share of the time measured.
CALIBRATION_REF_S = 0.0045
CALIBRATION_SHARE = 0.1
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sectorsched; "
                "print(time.perf_counter() - t)")


class Calibration:
    """Samples of a fixed loop of dict, list, float and sort work.

    The loop stands for the interpreter work the package does.  It does not
    call the package, and it runs with the garbage collector off, so the
    package's code and its garbage collections do not run inside it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Calibrate for CALIBRATION_SHARE of a span of ``seconds`` just measured."""
        self._owed += seconds * CALIBRATION_SHARE
        while self._owed > 0.0:
            gc.disable()
            try:
                sample = _calibration_loop()
            finally:
                gc.enable()
            self.samples.append(sample)
            self._owed -= sample

    def speed(self) -> float:
        """Factor that scales the spans measured to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples) if self.samples else 1.0


def _calibration_loop() -> float:
    start = time.perf_counter()
    table: dict[int, float] = {}
    rows = []
    acc = 0.0
    for i in range(6000):
        k = (i * 7919) % 211
        v = table.get(k, 0.0) + i * 0.5
        table[k] = v
        rows.append((k % 13, v, i))
        acc += v / (1.0 + k)
    rows.sort()
    acc += sum(r[1] for r in rows[::3])
    return time.perf_counter() - start


def _import_seconds(cal: Calibration) -> float:
    """Median time to import sectorsched in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        cal.after(times[-1])
    return statistics.median(times)


def _modules() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sectorsched")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported sectorsched from {pkg.__file__}, not {SRC}")
    names = dict(cli="cli", eq="equalize", sim="simulate", loads="loads", exact="exact",
                 gen="generate", io="io", model="model", err="errors")
    return SimpleNamespace(**{k: importlib.import_module(f"sectorsched.{v}")
                              for k, v in names.items()})


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    _calibration_loop()  # warm the loop before its samples count
    setup_cal = Calibration()
    import_s = _import_seconds(setup_cal)
    m = _modules()
    tracer = None
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    problems: list[str] = []
    try:
        builds, pools = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pools.append(wl.build(m, seed, work))
            builds.append(time.perf_counter() - start)
            setup_cal.after(builds[-1])
        items = pools[-1]
        if any([i.scenario for i in pool] != [i.scenario for i in items] for pool in pools):
            problems.append("the same seed built different inputs")
        del pools
        # The input pool lives for the whole run: move it out of the
        # collector's view so that collections during ops scan only what
        # the ops allocate, whatever the pool size.
        gc.collect()
        gc.freeze()
        if tracer:
            tracer.phase = "op"

        times: list[float] = []
        op_cal = Calibration()
        quality: list = [None] * len(items)
        attempted = failed = tasks = rounds = 0
        began = time.perf_counter()
        while rounds == 0 or time.perf_counter() - began < seconds:
            for k, item in enumerate(items):
                attempted += 1
                start = time.perf_counter()
                try:
                    out = wl.op(m, item)
                except (OpFailed, m.err.SectorSchedError, RuntimeError) as exc:
                    failed += 1
                    if failed == 1:
                        print(f"op failed on input {k}: {exc}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - start
                times.append(elapsed)
                tasks += item.n_tasks
                op_cal.after(elapsed)
                if rounds == 0:
                    found, quality[k] = wl.check(item, out)
                    problems += [f"input {k}: {p}" for p in found]
                del out
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()

        checked = [(item, q) for item, q in zip(items, quality) if q is not None]
        bounds = []
        for k, (item, q) in enumerate(checked):
            found, bound = rc.check_load_bounds(item.inst, q.max_rel_load, q.window_bound,
                                                with_lp=k < LP_INPUTS)
            problems += found
            bounds.append(bound)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    qs = [q for _, q in checked]
    setup_speed = setup_cal.speed()
    op_speed = op_cal.speed()
    end_to_end = {
        "setup_s": (import_s + statistics.median(builds)) * setup_speed,
        "op_p50_s": statistics.median(times) * op_speed if times else 0.0,
        "tasks_per_s": tasks / (sum(times) * op_speed) if times else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "max_rel_load": mean([q.max_rel_load for q in qs]),
        "worst_revisit_rot": mean([q.worst_revisit_rot for q in qs]),
        "completion_pass": mean([q.completion_pass for q in qs]),
        "edf_completion_pass": mean([q.edf_completion_pass for q in qs]),
    }
    print(f"# {workload} seed {seed}: {len(items)} inputs, {rounds} rounds, "
          f"{attempted} ops ({failed} failed), import {import_s:.4f} s, "
          f"build {statistics.median(builds):.4f} s, traced {trace}")
    print(f"# as measured: setup {import_s + statistics.median(builds):.4f} s, "
          f"op_p50 {statistics.median(times) if times else 0.0:.6f} s; speed factor "
          f"set-up {setup_speed:.4f}, ops {op_speed:.4f} "
          f"({len(setup_cal.samples)} and {len(op_cal.samples)} calibration loops)")
    print(f"# mean lower bound on max_rel_load {mean(bounds):.6f}; "
          f"op_p50_s {end_to_end['op_p50_s']:.6f}")
    if trace:
        metrics = tr.layer_metrics(tracer, len(times), SETUP_REPEATS)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# ------------------------------------------------------------------ repeats

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _bounds() -> dict[str, dict]:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    data = json.loads(spec.read_text(encoding="utf-8"))
    return {m["name"]: m for m in data.get("end_to_end", [])}


def repeat(args) -> int:
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
               "runs": runs, "metrics": {}}
    bounds = _bounds()
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = _quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name, {}).get("bound", "")
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound!s:>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}")
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.against:
        _compare(json.loads(Path(args.against).read_text(encoding="utf-8")), summary, bounds)
    return 0 if all(r["correct"] for r in runs) else 1


def _compare(before: dict, after: dict, bounds: dict) -> None:
    """How much worse each median got, as a share of the earlier median."""
    print(f"{'metric':28} {'before':>14} {'after':>14} {'worse by':>9} {'bound':>6}")
    for name, now in after["metrics"].items():
        then = before["metrics"].get(name)
        if then is None or not then["median"]:
            continue
        change = (now["median"] - then["median"]) / then["median"]
        spec = bounds.get(name, {})
        worse = -change if spec.get("better") == "higher" else change
        flag = " OVER" if spec and worse > spec["bound"] else ""
        print(f"{name:28} {then['median']:14.6g} {now['median']:14.6g} {worse:9.4f} "
              f"{spec.get('bound', '')!s:>6}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many processes on consecutive seeds and summarize")
    parser.add_argument("--save", help="with --repeat: write the set of runs as JSON")
    parser.add_argument("--against", help="with --repeat: compare with a saved set")
    args = parser.parse_args(argv)
    if not (SRC / "sectorsched" / "__init__.py").is_file():
        print(f"perfbench: no sectorsched sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
