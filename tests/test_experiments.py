import os
import subprocess
import sys
from pathlib import Path

import pytest

import vclab

BREAKEVEN = Path(__file__).resolve().parents[1] / "experiments" / "pool_breakeven.py"


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool of two needs two CPUs")
def test_pool_breakeven_smallest_point():
    src = str(Path(vclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(BREAKEVEN), "--points", "1", "--pairs", "1", "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == "| batch | work | in process | pool | pool faster |"
    assert lines[3].startswith("| `apvc_naive` G(26, 0.5) | 54k | ")
    assert lines[4].startswith("# least slowdown ") and len(lines) == 5
