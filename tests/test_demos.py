"""The demos' output, pinned byte for byte.

Each demo runs in a child interpreter with ``PYTHONPATH=src`` and its stdout
must hash to the SHA-256 recorded below.  A change that moves any printed
figure (a partition, a load, a revisit, a completion pass) fails here; a
deliberate one records the new digest together with the reason.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_sector_geometry.py": "a98b86f0c0cb0fdb164d5f558d41af8f9e5cbe33f0eafca286845ea1f3cf97ae",
    "02_load_equalization.py": "7a14ead5f2886363311d0e6fe175c483b3046b4a6c0d44d837ea0a39c5e4ee78",
    "03_exact_vs_greedy.py": "e0b49be1f7cafc10b27d445298f4694a6572245be60c179955e1614af1a3e1ad",
    "04_rotation_simulation.py": "6ec92d8c5f1fb66ee8d84fd3ac7f6a9a8de89bd06adb8118c4bf2c29cabc7e96",
    "05_fov_sensitivity.py": "9486ab4e230f48f87dd02cea3006863339d1c9db7f16f3880d35737492d1056a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_matches_recorded_digest(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_SHA256[demo]
