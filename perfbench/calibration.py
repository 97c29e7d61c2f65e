"""Calibration against the CPU speed swings of a shared host.

The host this benchmark was written on is a virtual machine with 2 CPUs.
Two kinds of noise reach a timing there:

- the hypervisor takes the CPU away now and then (steal time), for up to
  half of a second at a time;
- the speed of the CPU, while it runs, swings by up to a fifth within
  seconds.

Process CPU time leaves steal out. To cancel the speed swings, a fixed
kernel runs between consecutive pieces of timed work: breadth-first search
over a fixed graph, the kind of work vclab's flow core does, written here
so that no change to vclab can alter it. Each timed piece is rescaled to
the speed at which the kernel takes CAL_REF_S of CPU time. The speed a
piece saw is the median of the CAL_WINDOW kernel timings nearest to it,
half before and half after, which smooths out the noise of single kernel
timings.

A job that fans out to worker processes spends its time waiting for them,
so it is timed by the wall clock, and it depends on how fast the other CPU
runs, which a kernel in this process cannot see. Such a job is rescaled
instead by `parallel_calibration_seconds`, which runs the kernel, timed by
the wall clock, in as many forked children at once. A child that has to
give up its CPU loses whole slices at a time, so the children repeat the
kernel and the mean, not the median, of the samples around the job is used.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from collections import deque

CAL_REF_S = 0.002
CAL_WINDOW = 6
_N = 400
_SOURCES = 10
_PARALLEL_PASSES = 4


def _graph() -> list[list[int]]:
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(_N)]
    for _ in range(4 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _graph()


def calibration_seconds(clock=time.process_time) -> float:
    """Time one pass of the calibration kernel, by default in CPU time."""
    start = clock()
    for s in range(_SOURCES):
        levels = [-1] * _N
        levels[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            nxt = levels[u] + 1
            for w in _ADJ[u]:
                if levels[w] < 0:
                    levels[w] = nxt
                    queue.append(w)
    return clock() - start


def calibrated(raw: list[float], kernel: list[float]) -> list[float]:
    """Rescale raw[i], which ran between kernel timings kernel[i] and kernel[i + 1]."""
    half = CAL_WINDOW // 2
    return [
        x * CAL_REF_S / statistics.median(kernel[max(0, i + 1 - half) : i + 1 + half])
        for i, x in enumerate(raw)
    ]


def parallel_calibration_seconds(width: int) -> float:
    """Mean kernel pass time of the slowest of `width` children run at once.

    The children are forked, like the worker pools of vclab, and released
    together once all of them exist. Forking is safe here because the
    benchmark runs no threads between jobs.
    """
    go_read, go_write = os.pipe()
    children = []
    for _ in range(width):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.read(go_read, 1)
                passes = (calibration_seconds(time.perf_counter) for _ in range(_PARALLEL_PASSES))
                took = sum(passes) / _PARALLEL_PASSES
                os.write(write, repr(took).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    os.write(go_write, b"x" * width)
    slowest = 0.0
    for pid, read in children:
        with os.fdopen(read) as f:
            slowest = max(slowest, float(f.read()))
        os.waitpid(pid, 0)
    os.close(go_read)
    os.close(go_write)
    return slowest
