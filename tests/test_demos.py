"""Every demo script runs to completion from a source checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("demo_*.py"))
# the erasure demo runs 2000 trials at n = 1024 by default
ARGS = {"demo_erasure_code.py": ["--trials", "100"]}


def test_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *ARGS.get(name, [])],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr
    if name == "demo_erasure_code.py":
        m = re.search(r"^failures (\d+) == dependence events (\d+)$", res.stdout, re.M)
        assert m and m.group(1) == m.group(2), res.stdout
