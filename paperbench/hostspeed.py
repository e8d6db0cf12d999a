"""Host-speed calibration of the benchmark's times.

The benchmark runs on a shared host whose speed drifts by 15–40 % over
minutes, so the same code reads very differently from one run to the
next.  Every timed interval is therefore bracketed by runs of a fixed
reference kernel that touches no ``repro`` code, and reported in
*reference seconds*::

    wall seconds * REF_SECONDS / kernel seconds measured around it

A slower commit still reads slower, because the kernel does not change
with the program; a slower phase of the host slows the kernel too and
mostly cancels out.

The kernel is a Floyd–Warshall closure of a small integer matrix, the
shape of work a DBM closure does.  Every value stays below 256, so
CPython takes the integers from its small-int cache and the kernel
allocates almost nothing; with the garbage collector off while it
runs, the program's heap (which grows on ``brp-mcpta``) does not leak
into the reading.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Kernel seconds at the host speed the bounds were set at (a quiet
#: phase of a 2-vCPU VM).  It only fixes the scale of the reported
#: times; it must stay the same across commits.
REF_SECONDS = 0.015
#: Closure rounds per kernel run: about 15 ms on that host.
ROUNDS = 120
#: Kernel runs around a set-up sample; their median is the reading.
SETUP_READINGS = 3

_N = 12
_MATRIX = tuple(tuple((i * 37 + j * 11) % 97 + 1 for j in range(_N))
                for i in range(_N))


def _closures(rounds):
    total = 0
    for _ in range(rounds):
        m = [list(row) for row in _MATRIX]
        for k in range(_N):
            mk = m[k]
            for i in range(_N):
                mi = m[i]
                mik = mi[k]
                for j in range(_N):
                    v = mik + mk[j]
                    if v < mi[j]:
                        mi[j] = v
        total += m[_N - 1][0]
    return total


def kernel_seconds():
    """Wall seconds of one run of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _closures(ROUNDS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_median():
    """Median of ``SETUP_READINGS`` kernel runs back to back."""
    return statistics.median(kernel_seconds()
                             for _ in range(SETUP_READINGS))


def scaled(seconds, before, after):
    """``seconds`` of wall time in reference seconds, given the kernel
    seconds read just before and just after it."""
    return seconds * REF_SECONDS / ((before + after) / 2)


def scale_all(times, kernel):
    """Scale task times ``times[i]``, each run between kernel readings
    ``kernel[i]`` and ``kernel[i + 1]``."""
    if len(kernel) != len(times) + 1:
        raise ValueError(f"{len(times)} tasks need {len(times) + 1} "
                         f"kernel readings, not {len(kernel)}")
    return [scaled(t, kernel[i], kernel[i + 1])
            for i, t in enumerate(times)]
