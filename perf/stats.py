"""Estimators the benchmark reports, and the calibration kernel.

Host time on a small shared box drifts by tens of percent between runs
while the ratio of two adjacent measurements drifts far less.  Every
gated timing is therefore a *calibrated* one: the time of the operation
divided by the time of ``calibration_kernel`` run right next to it, in
"cu" (calibration units).  The kernel imports nothing from the program
under test, so no change to the program can move it.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: iterations of the calibration kernel (~25 ms on the reference box)
CALIBRATION_ITERATIONS = 120_000

#: tail percentiles, highest first; one is reported only when at least
#: this many samples lie beyond it
TAIL_PERCENTILES = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def calibration_kernel(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """Integer multiply-add plus a dict store per iteration: the same
    bytecode mix (arithmetic, masking, hashing, small-int allocation)
    the interpreter loops of the program under test are made of."""
    table = {}
    acc = 1
    for index in range(iterations):
        acc = (acc * 1103515245 + index) & 0xFFFFFFFF
        table[index & 1023] = acc
    return acc ^ len(table)


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """Wall seconds of one call, and its result."""
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def clocks() -> Tuple[float, float]:
    """The two clocks an operation is timed on: wall seconds, and the
    seconds this process (all its threads) has spent in user mode.  The
    second leaves out what the host's kernel does inside system calls
    (see ``perf/README.md``, "How time is measured", point 4)."""
    return (time.perf_counter(),
            resource.getrusage(resource.RUSAGE_SELF).ru_utime)


def elapsed(started: Tuple[float, float]) -> Tuple[float, float]:
    """Wall and user seconds since ``started`` (a ``clocks()``)."""
    wall, user = clocks()
    return wall - started[0], user - started[1]


def calibrate() -> Tuple[float, float]:
    """Wall and user seconds of one run of the calibration kernel."""
    started = clocks()
    calibration_kernel()
    return elapsed(started)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))   # ceil
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile of ``TAIL_PERCENTILES`` that still has
    ``TAIL_MIN_BEYOND`` samples beyond it, with its value; ``None``
    when even the lowest has not (fewer than 40 samples)."""
    count = len(values)
    for pct in TAIL_PERCENTILES:
        if count * (100 - pct) // 100 >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def drop_warmup(values: List, warmup: int) -> List:
    """Discard the first ``warmup`` samples, unless that would leave
    nothing (very short runs keep what they have)."""
    return values[warmup:] if len(values) > warmup else values
