"""Speed probe: a fixed pure-Python kernel timed between measurements.

The machine the benchmark was written on shares its host, and its speed
drifts by up to a half, within seconds and over minutes; process CPU
time drifts with it.  Every measuring process times this kernel between
requests, every quarter second or so, and run.py scales the times
measured between two probes by ``REFERENCE_PROBE_S / probe time``: the
time the work would have taken at the speed where the kernel takes
``REFERENCE_PROBE_S``.  The kernel never calls openbooks, so a change to
openbooks cannot move it; it is the same kind of work (exact integer
elimination, a continued fraction expansion, dict bookkeeping), so the
drift moves both alike.  The kernel and REFERENCE_PROBE_S are part of the
benchmark's definition: changing either changes every time it reports.
"""

import gc
from fractions import Fraction
from time import perf_counter

# About the kernel's time on the 2-vCPU x86-64 VM (Python 3.11) the bounds
# were set on, in a stretch where it ran fast.  Scaled times are times at
# that speed.
REFERENCE_PROBE_S = 0.001
PROBE_REPEATS = 5

_N = 10
_MATRIX = tuple(tuple((i * 7 + j * 13) % 17 - 8 + 40 * (i == j) for j in range(_N))
                for i in range(_N))


def _kernel():
    # fraction-free (Bareiss) elimination: every division is exact
    a = [list(row) for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        for i in range(k + 1, _N):
            for j in range(k + 1, _N):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    # ceiling continued fraction of det / (a large odd number)
    x = Fraction(a[-1][-1], 12345678901234567)
    coeffs = []
    while x.denominator != 1:
        c = -(-x.numerator // x.denominator)
        coeffs.append(c)
        x = 1 / (c - x)
    counts = {}
    for i in range(1500):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return len(coeffs), sum(counts.values())


def probe():
    """Seconds the kernel takes: the mean of PROBE_REPEATS runs, without
    garbage collection.  The mean, not the fastest run: the machine's speed
    changes within milliseconds, and the work measured meanwhile sees its
    average, which the fastest run would not read."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        for _ in range(PROBE_REPEATS):
            _kernel()
        return (perf_counter() - t) / PROBE_REPEATS
    finally:
        if enabled:
            gc.enable()


def scale(probes):
    """Factor from times measured between probes ``probes`` to reference speed."""
    return REFERENCE_PROBE_S / (sum(probes) / len(probes))


if __name__ == "__main__":
    import statistics

    times = [probe() for _ in range(200)]
    print(f"probe: min {min(times):.6f} s, median {statistics.median(times):.6f} s")
