"""Machine-speed calibration for timings taken on a shared, drifting host.

The host the benchmark runs on changes speed from second to second (other
tenants, frequency scaling): the same pure-Python loop can take 30% longer
in one second than in the next, and process CPU time drifts just as much
as wall time.  A short fixed kernel timed between ops tracks that drift,
so each op time is rescaled to the speed at which the kernel takes
``REFERENCE_S``.  Code changes in the library do not touch the kernel, so
a real slowdown still shows in full.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import gc
import statistics
import time

# Kernel time on an unloaded 2-vCPU x86 VM (the median of many runs there).
REFERENCE_S = 0.00085

_EVENS = frozenset(range(0, 400, 2))
_THIRDS = frozenset(range(0, 400, 3))


def _kernel() -> float:
    t = time.perf_counter()
    acc = 0
    table = {}
    for i in range(5_000):
        acc += len(_EVENS & _THIRDS) if i % 64 == 0 else (i * i) % 7
        table[i % 509] = acc
    return time.perf_counter() - t


def calibrate() -> float:
    """Seconds the fixed kernel takes right now.

    The kernel does integer arithmetic, dict stores and set intersections,
    the operations the library spends its time in.  It runs three times
    and the median is kept, so one interruption does not count; the
    garbage collector is held off meanwhile, because a collection would
    time the library's heap rather than the machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(3))
    finally:
        if was_enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel runs to reference speed."""
    return REFERENCE_S / ((before + after) / 2)
