"""vclab benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-fast --seed 1 --seconds 20 --trace 0

The benchmark imports vclab from the checkout's `src/` and drives it through
its public Python functions in this single process; only `apvc_naive` on the
dense-exact workload fans out, to 2 worker processes. It is a closed loop
with one client: the next job starts when the previous one has returned and
been checked. Each job's output is checked against a reference computed
before timing starts, and a job that raises or fails its check is counted as
failed without stopping the run.

With `--trace 0` it reports the end-to-end metrics of a run of `--seconds`
seconds of job time. With `--trace 1` it reports the per-layer metrics of a
fixed number of rounds run under the tracer of `tracing.py`, and writes the
spans to `.bench_out/` in the checkout. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from calibration import CAL_REF_S, calibrated, calibration_seconds, parallel_calibration_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# Imports vclab in a fresh interpreter, bracketed by calibration kernels run
# in that same interpreter; prints the import's CPU time, then the kernel's.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from calibration import calibration_seconds
before = [calibration_seconds() for _ in range(3)]
start = time.process_time()
import vclab
took = time.process_time() - start
print(took, *before, *(calibration_seconds() for _ in range(3)))
"""

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_vclab():
    """Import vclab from this checkout's src/, and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import vclab

    if not os.path.abspath(vclab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vclab was imported from {vclab.__file__}, not from {SRC}")
    return vclab


def import_seconds() -> float:
    """Calibrated time to import vclab in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    took, *kernel = (float(x) for x in done.stdout.split())
    return took * CAL_REF_S / statistics.median(kernel)


def build_seconds(build) -> float:
    """Calibrated CPU time of one call of `build`."""
    before = calibration_seconds()
    start = time.process_time()
    build()
    took = time.process_time() - start
    return calibrated([took], [before, calibration_seconds()])[0]


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


def attempt(job):
    """Run and check one job.

    Returns (wall seconds, CPU seconds, whether it reaped child processes,
    ok, traceback of a failure).
    """
    wall, cpu, children = time.perf_counter(), time.process_time(), _children_cpu()

    def took():
        return time.perf_counter() - wall, time.process_time() - cpu, _children_cpu() != children

    try:
        out = job.run()
    except Exception:
        return (*took(), False, traceback.format_exc())
    spent = took()
    try:
        ok = bool(job.check(out))
    except Exception:
        return (*spent, False, traceback.format_exc())
    return (*spent, ok, None if ok else f"{job.kind}: output failed its check\n")


def run_rounds(rounds, seconds=None, tracer=None):
    """Repeat the rounds until `seconds` of wall-clock job time have passed,
    stopping only at a round boundary; without `seconds`, run each round once.

    A job that runs in this process is timed by its CPU time, a job that fans
    out by the wall clock; see calibration.py. A job declared to run in
    this process that turns out to have used child processes is timed by
    the wall clock too, and reported on standard error.

    Returns (raw wall latencies, calibrated latencies, failed, rounds run),
    and reports the first failure on standard error.
    """
    walls: list[float] = []
    costs: list[float] = []
    kernel = [calibration_seconds()]
    fanned_out: dict[int, float] = {}  # job index -> mean parallel kernel time
    failed = 0
    done = 0
    while done < len(rounds) if seconds is None else sum(walls) < seconds:
        for job in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.job = len(walls)
            before = parallel_calibration_seconds(job.workers) if job.workers > 1 else 0.0
            wall, cpu, reaped, ok, error = attempt(job)
            if job.workers > 1:
                fanned_out[len(walls)] = (before + parallel_calibration_seconds(job.workers)) / 2
            elif reaped:
                print(f"{job.kind} used child processes; timed by the wall clock", file=sys.stderr)
            walls.append(wall)
            costs.append(wall if reaped or job.workers > 1 else cpu)
            kernel.append(calibration_seconds())
            if not ok:
                if not failed:
                    print(f"first failed job ({job.kind}):\n{error}", file=sys.stderr, end="")
                failed += 1
        done += 1
    rescaled = calibrated(costs, kernel)
    for i, mean_kernel in fanned_out.items():
        rescaled[i] = costs[i] * CAL_REF_S / mean_kernel
    return walls, rescaled, failed, done


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(rounds, seconds, setup_s):
    """The timed, untraced run. Returns (metrics, attempted, failed, report lines)."""
    raw, latencies, failed, done = run_rounds(rounds, seconds)
    attempted = len(latencies)
    metrics = {
        "jobs_per_s": attempted / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(x * 1000.0 > metrics["latency_p90_ms"] for x in latencies)
    lines = [
        f"{attempted} jobs in {done} rounds, {sum(raw):.3f} s of job time "
        f"({sum(latencies):.3f} s calibrated); {beyond} latency samples beyond p90",
        f"uncalibrated: jobs_per_s {attempted / sum(raw):.6g}, latency_p50_ms "
        f"{1000.0 * statistics.median(raw):.6g}, latency_p90_ms {1000.0 * percentile(raw, 90):.6g}",
    ]
    return metrics, attempted, failed, lines


def per_layer(rounds, spans_path):
    """The traced run over a fixed set of rounds, so that its counts repeat
    exactly for a seed. Returns (metrics, attempted, failed, report lines).

    An untraced pass warms caches and the allocator first; the tracing
    overhead compares the traced pass with a second untraced pass after it.
    """
    from tracing import Tracer, layer_metrics

    run_rounds(rounds)
    with Tracer() as tracer:
        _, latencies, failed, _ = run_rounds(rounds, tracer=tracer)
        pool_calls, pooled_wall, replay_wall = tracer.replay_pooled()
    traced = sum(latencies)
    untraced = sum(run_rounds(rounds)[1])
    metrics = layer_metrics(tracer.spans, pool_calls, pooled_wall, replay_wall, (traced - untraced) / untraced)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    lines = [f"traced {len(latencies)} jobs in {len(rounds)} rounds, {len(tracer.spans)} spans written to {spans_path}"]
    return metrics, len(latencies), failed, lines


def run(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """One benchmark run; returns (result dict, report lines)."""
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    vc = import_vclab()
    setup, plan, trace_rounds = WORKLOADS[workload]
    instances = None

    def build():
        nonlocal instances
        instances = setup(vc, seed, tiny)

    setup_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS)) + statistics.median(
        build_seconds(build) for _ in range(SETUP_REPEATS)
    )
    rounds = plan(vc, instances, corrupt)
    # Instances and references live for the whole run; keep them out of the
    # collector's way so that its pauses depend on what the jobs allocate.
    gc.freeze()
    try:
        if trace:
            spans_path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.tsv")
            metrics, attempted, failed, lines = per_layer(rounds[:trace_rounds], spans_path)
            units = LAYER_METRICS
        else:
            metrics, attempted, failed, lines = end_to_end(rounds, seconds, setup_s)
            units = END_TO_END
    finally:
        gc.unfreeze()
    lines.insert(0, f"workload {workload} seed {seed}")
    lines.append(f"failed_share {failed / attempted:.4f} ratio ({failed} of {attempted} jobs failed)")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_vclab()
    except ImportError as exc:
        print(f"error: cannot import vclab from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
