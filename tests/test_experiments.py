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


PHASES = Path(__file__).resolve().parents[1] / "experiments" / "flow_phases.py"


def test_flow_phases_smallest_size():
    src = str(Path(vclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(PHASES), "--small"], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    titles = [line for line in lines if line.startswith("## ")]
    assert titles == [
        "## 4-clique via H, unplanted G(5, 0.2): 3 queries, 41 warm-started units",
        "## edge-universal via J, planted G(4, 0.3): 28 queries, 542 warm-started units",
        "## `apvc_naive` on G(10, 0.5): 45 queries, 206 warm-started units",
    ]
    assert lines.count("| source distance | searches | units | units per phase | labelled per search |") == 3
    # H's first phase runs at source distance 9 and routes 8 units per query;
    # how many nodes a search labels depends on where it stops, so it is not pinned
    assert lines[3].startswith("| 9 | 3 | 24 | 8.00 | ")
