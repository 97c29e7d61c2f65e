"""Self-test of the benchmark.

Run from the root of a checkout with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It runs every workload at a tiny size, proves that a corrupted reference
shows up as failed jobs, and checks that every metric the runs emit is
declared in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
TINY_SECONDS = 0.01


def benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_json()[section]}


def units(result) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_workload_runs_tiny():
    assert set(WORKLOADS) == {w["name"] for w in benchmark_json()["workloads"]}
    for name in WORKLOADS:
        result, _ = run.run(name, SEED, TINY_SECONDS, trace=False, tiny=True)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert units(result) == declared("end_to_end"), name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_corrupted_reference_counts_as_failed():
    for name in WORKLOADS:
        result, _ = run.run(name, SEED, TINY_SECONDS, trace=False, tiny=True, corrupt=True)
        assert result["failed"] > 0 and not result["correct"], name


def test_traced_metrics_are_declared():
    import vclab.flow

    query = vclab.flow.ConnectivitySweep.query
    for name in WORKLOADS:
        result, _ = run.run(name, SEED, TINY_SECONDS, trace=True, tiny=True)
        assert result["correct"], name
        assert units(result) == declared("per_layer"), name
    assert vclab.flow.ConnectivitySweep.query is query, "tracer left a wrapper installed"


if __name__ == "__main__":
    for test in (test_every_workload_runs_tiny, test_corrupted_reference_counts_as_failed, test_traced_metrics_are_declared):
        test()
        print(f"{test.__name__}: ok")
