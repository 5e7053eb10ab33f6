"""How fast the vCPU runs right now, to report timings at one reference speed.

The vCPUs of the VM this benchmark was written on change speed by up to 1.9x,
in phases that last from a second to over a minute, independently of the
work inside the VM (no steal time is reported, and process time tracks wall
time).  A 15 s run can fall wholly inside a slow or a fast phase, so its raw
medians differ from run to run by as much as the phases do.

The benchmark therefore times this calibration kernel between queries, on
the same vCPU (run.py pins every process of a run to one CPU), and divides
each query's latency by the kernel's slowdown against CAL_REF_S, averaged
over the samples right before and right after the query.  (Speed can change
within a second: the median of the samples over a 1 s window spread the
tail latency of pairs over ten seeds more than twice as wide as raw times.)
The kernel uses numpy only, never the library, so no change to the library
changes it.  It mixes the two kinds of work the library does: many numpy
calls on one-row arrays, and one pass over a large array.  Across phases,
the library's one-row-heavy queries and its large batched scans each track
this mix to within a few percent, while their raw times swing by 1.5-1.9x.
"""

import time

import numpy as np

# kernel time at the reference speed: the fast phase of the 2-vCPU Intel Xeon
# VM the bounds in BENCHMARK.json were measured on
CAL_REF_S = 0.9e-3
REPEATS = 3           # a sample is the fastest of these kernel runs

_ONE_ROW = np.array([[0.6, -0.8]])
_LARGE = np.random.default_rng(12345).normal(size=(14000, 2))


def _kernel():
    a = _ONE_ROW
    for _ in range(80):
        s = np.sum(np.abs(a) ** 3.0, axis=1) ** (1.0 / 3.0)
        a = a + 1e-12 * s[:, None]
    return float(a[0, 0]) + float(np.sum(np.sum(np.abs(_LARGE) ** 3.0, axis=1) ** (1.0 / 3.0)))


def sample():
    """Seconds per kernel run now (the fastest of REPEATS runs)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(before, after):
    """Slowdown against the reference speed over an interval bracketed by two samples."""
    return 0.5 * (before + after) / CAL_REF_S


def scale(starts, latencies, times, samples):
    """Latencies at the reference speed, each divided by the slowdown of the
    samples right around it.  starts and times are on one clock; times is
    sorted, and every query has a sample on each side of it."""
    starts = np.asarray(starts)
    before = np.searchsorted(times, starts, side="right") - 1
    after = np.searchsorted(times, starts + np.asarray(latencies), side="left")
    return [dt / slowdown(samples[a], samples[b])
            for dt, a, b in zip(latencies, before, after)]
