"""The package runs on the standard library alone.

The child process blocks ``import numpy`` before importing anything from
the package, then runs the README library quick start, the resource
estimator and a CLI batch report.  Any numpy import anywhere on those paths
fails with ImportError.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import sectorsched

CHILD = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None  # any "import numpy" now raises ImportError
    sys.path.insert(0, sys.argv[1])

    import sectorsched
    import sectorsched.cli
    import sectorsched.io
    from sectorsched import (GenParams, equalize, generate, load_report,
                             measure_resources, revisit_stats, simulate)

    scenario = generate(GenParams(n_sectors=30, fov_half_width=5, seed=7,
                                  hotspots=((10, 0.5, 4.0),)))
    partition = equalize(scenario)
    report = load_report(scenario, partition)
    trace = simulate(scenario, "partition", partition, cycles=4)
    stats = revisit_stats(trace, scenario)
    assert report.max_relative_load >= 1.0 - 1e-9
    assert stats.max_interval_rot > 0.0

    estimate = measure_resources([0.3, 0.5, 0.1, 0.2], 2, 1.0, 0.5)
    assert len(estimate) == 2

    out = sys.argv[2]
    assert sectorsched.cli.main(["report", "--seed", "0", "--runs", "1",
                                 "--fov", "5", "1", "--out", out]) == 0
    assert sys.modules["numpy"] is None
    print("ok")
""")


def test_package_runs_without_numpy(tmp_path):
    src = Path(sectorsched.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(tmp_path / "bench.csv")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "bench.summary.csv").exists()
