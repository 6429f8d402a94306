"""Machine-speed calibration of the benchmark's timings.

The benchmark is meant for small shared machines, whose CPU speed drifts
with the load of other tenants: on a 2-vCPU host a fixed pure-Python loop
ran anywhere from 240 to 460 times a second, and its mean over one-minute
blocks still spread by a fifth.  symchar's own timings follow that drift,
which would hide any change to symchar smaller than it.

So every timed stretch of work is bracketed by a short run of a fixed
reference kernel, and its time is scaled by ``speed / REFERENCE_SPEED``,
where ``speed`` is the kernel's rate measured around it: the scaled time is
how long the same work takes on a machine running the kernel
REFERENCE_SPEED times a second.  The kernel does integer and dict work like
symchar's, allocates no object the garbage collector tracks (so it does not
move symchar's collections, nor depend on symchar's heap), and is the same
for every version of symchar, so scaled times of two versions compare as
raw times on one quiet machine would.  The report prints raw figures too.
"""

from __future__ import annotations

import time

# Kernel runs per second at which scaled times equal raw times; about the
# median rate on a 2-vCPU x86-64 sandbox with Python 3.11.
REFERENCE_SPEED = 700.0
REPS = 6  # kernel runs per measurement, about 9 ms at the reference speed
EVERY_S = 0.25  # timed work between two measurements in a worker
_MASK = (1 << 80) - 1


def _kernel() -> int:
    table: dict[int, int] = {}
    x = 1
    for i in range(3000):
        key = (x >> 7) & 4095
        table[key] = table.get(key, 0) + i
        x = (x * 1103515245 + 12345) & _MASK
    return len(table)


def speed(reps: int = REPS) -> float:
    """Kernel runs per second, measured now."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return reps / (time.perf_counter() - start)


def scale(times: list[float], marks: list[int], speeds: list[float]) -> list[float]:
    """Scaled copies of ``times``.  ``speeds[j]`` was measured just before
    ``times[marks[j]]`` (and ``speeds[-1]`` after the last time, with
    ``marks[-1] == len(times)``); each time is scaled by the mean of the two
    measurements around it."""
    out: list[float] = []
    for j in range(len(marks) - 1):
        factor = (speeds[j] + speeds[j + 1]) / (2 * REFERENCE_SPEED)
        out.extend(t * factor for t in times[marks[j]:marks[j + 1]])
    return out
