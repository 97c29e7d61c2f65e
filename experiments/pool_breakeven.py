"""Where does a worker pool start to pay for a batch of flow queries?

`vclab.solvers` runs a batch in worker processes only when its work,
queries x m, reaches `_MIN_POOLED_WORK`; below that it runs in the calling
process. This script re-measures the crossing. For each point (a solver on
a seeded G(n, p)) it times the same call in process (threads=1) and in a
pool of `--workers` processes (threads=workers, with the threshold forced
to 0 so the pool is always used), in `--pairs` pairs whose order
alternates, by the wall clock. It prints one row per point, by work:

    batch | work | in process | pool | pool faster

with the medians in ms and the number of pairs the pool won. A last line
names the range of thresholds that loses least to the faster choice: each
point runs in process below the threshold and pooled at or above it, and
its median is divided by the smaller of its two medians; every point
counts the same in the geometric mean of these slowdowns.
Standard library only; run it from the repository root on an otherwise
idle host:

    PYTHONPATH=src python3 experiments/pool_breakeven.py [--pairs 7] [--workers 2]

`--points N` keeps the N smallest points (the smoke test runs one).
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

from vclab import solvers
from vclab.graphs import gen_gnp

# (solver, n, p): dense and sparse G(n, p), work from about 50k to 1.5M
POINTS = [
    ("apvc_naive", 26, 0.5),
    ("ssvc", 120, 0.08),
    ("apvc_naive", 30, 0.5),
    ("ssvc", 130, 0.1),
    ("apvc_naive", 40, 0.2),
    ("apvc_naive", 32, 0.5),
    ("ssvc", 80, 0.5),
    ("apvc_naive", 44, 0.15),
    ("ssvc", 140, 0.1),
    ("apvc_naive", 50, 0.1),
    ("apvc_naive", 34, 0.5),
    ("ssvc", 160, 0.08),
    ("ssvc", 90, 0.5),
    ("apvc_naive", 36, 0.5),
    ("ssvc", 200, 0.05),
    ("apvc_naive", 38, 0.5),
    ("ssvc", 100, 0.5),
    ("apvc_naive", 40, 0.5),
    ("apvc_naive", 60, 0.1),
    ("ssvc", 250, 0.04),
    ("ssvc", 110, 0.5),
    ("apvc_naive", 42, 0.5),
    ("ssvc", 120, 0.5),
    ("apvc_naive", 44, 0.5),
    ("ssvc", 300, 0.04),
    ("apvc_naive", 70, 0.1),
    ("apvc_naive", 50, 0.5),
    ("ssvc", 150, 0.5),
    ("ssvc", 400, 0.03),
    ("apvc_naive", 80, 0.1),
    ("apvc_naive", 56, 0.5),
    ("ssvc", 180, 0.5),
    ("ssvc", 500, 0.024),
]


def work(solver: str, n: int, m: int) -> int:
    """queries x m, the unit of `_MIN_POOLED_WORK`."""
    queries = n * (n - 1) // 2 if solver == "apvc_naive" else n - 1
    return queries * m


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(solver: str, g, pairs: int, workers: int) -> tuple[list[float], list[float]]:
    """Wall seconds of `pairs` in-process and pooled calls, alternating which runs first."""
    solve = getattr(solvers, solver)
    args = (g,) if solver == "apvc_naive" else (g, 0)
    threshold = solvers._MIN_POOLED_WORK
    serial, pooled = [], []
    try:
        solvers._MIN_POOLED_WORK = 0
        for i in range(pairs):
            runs = [(serial, 1), (pooled, workers)]
            for out, threads in runs if i % 2 == 0 else runs[::-1]:
                out.append(timed(lambda: solve(*args, threads=threads)))
    finally:
        solvers._MIN_POOLED_WORK = threshold
    return serial, pooled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=7, help="alternating pairs per point")
    parser.add_argument("--workers", type=int, default=2, help="pool size")
    parser.add_argument("--points", type=int, default=len(POINTS), help="keep the N smallest points")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not 2 <= args.workers <= (os.cpu_count() or 1):
        parser.error(f"need --pairs >= 1 and 2 <= --workers <= {os.cpu_count()}")
    rows = []
    for solver, n, p in POINTS:
        g = gen_gnp(n, p, 1)
        rows.append((work(solver, n, g.m), solver, n, p, g))
    rows.sort(key=lambda row: row[0])
    print(f"# {args.pairs} alternating pairs per point, pool of {args.workers}, "
          f"{os.cpu_count()} CPUs, load {os.getloadavg()[0]:.2f}; medians in ms")
    print("| batch | work | in process | pool | pool faster |")
    print("|---|---|---|---|---|")
    medians = []  # (work, in process, pool), by work
    for units, solver, n, p, g in rows[: args.points]:
        serial, pooled = measure(solver, g, args.pairs, args.workers)
        wins = sum(b < a for a, b in zip(serial, pooled))
        medians.append((units, statistics.median(serial) * 1e3, statistics.median(pooled) * 1e3))
        print(
            f"| `{solver}` G({n}, {p:g}) | {units / 1000:.0f}k | "
            f"{medians[-1][1]:.1f} | {medians[-1][2]:.1f} | {wins}/{args.pairs} |",
            flush=True,
        )
    # the first i points run in process, the rest pooled
    slowdowns = [
        math.exp(statistics.fmean(
            math.log((inp if j < i else pool) / min(inp, pool))
            for j, (_, inp, pool) in enumerate(medians)
        ))
        for i in range(len(medians) + 1)
    ]
    i = slowdowns.index(min(slowdowns))
    low = medians[i - 1][0] if i else 0
    high = f"{medians[i][0]}]" if i < len(medians) else "inf)"
    print(
        f"# least slowdown {slowdowns[i]:.3f} (all in process {slowdowns[-1]:.3f}, "
        f"all pooled {slowdowns[0]:.3f}) with the threshold in ({low}, {high}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
