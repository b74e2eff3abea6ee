"""Performance consistency and predictability.

The paper's conclusion notes that "runtime overhead not only affects
startup performance, but also system performance consistency and
predictability" — translation pauses make delivered performance vary
over time in a way conventional processors do not.  This module
quantifies that: interval IPCs over a startup run and their dispersion.

Metrics:

* **interval IPCs** — instantaneous (per log-interval) IPC between
  consecutive samples, as opposed to the aggregate IPC the startup
  figures plot;
* **coefficient of variation (CV)** of interval IPCs over a window —
  lower is steadier;
* **worst interval fraction** — the slowest interval's IPC relative to
  the final aggregate, a simple predictability floor (how far delivered
  performance can momentarily drop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.timing.startup_sim import StartupResult


def interval_ipcs(result: StartupResult,
                  min_cycles: float = 0.0
                  ) -> List[Tuple[float, float]]:
    """(interval-end cycles, interval IPC) between consecutive samples."""
    series = result.series
    out: List[Tuple[float, float]] = []
    for index in range(1, len(series.cycles)):
        span = series.cycles[index] - series.cycles[index - 1]
        if span <= 0 or series.cycles[index] < min_cycles:
            continue
        instrs = series.instructions[index] - \
            series.instructions[index - 1]
        out.append((series.cycles[index], instrs / span))
    return out


@dataclass
class ConsistencyReport:
    """Dispersion statistics of delivered performance over a run."""

    config_name: str
    app_name: str
    mean_interval_ipc: float
    cv: float                     # std / mean of interval IPCs
    worst_interval_fraction: float


def consistency_report(result: StartupResult,
                       skip_cycles: float = 1e5) -> ConsistencyReport:
    """Dispersion of interval IPCs after the first ``skip_cycles``.

    The earliest intervals are cold-start for every machine; skipping
    them isolates the *translation-induced* variability the paper's
    conclusion refers to.
    """
    points = interval_ipcs(result, min_cycles=skip_cycles)
    values = [ipc for _cycles, ipc in points]
    if not values:
        return ConsistencyReport(result.config_name, result.app_name,
                                 0.0, 0.0, 0.0)
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    std = math.sqrt(variance)
    aggregate = result.aggregate_ipc
    worst = min(values) / aggregate if aggregate else 0.0
    return ConsistencyReport(
        config_name=result.config_name,
        app_name=result.app_name,
        mean_interval_ipc=mean,
        cv=std / mean if mean else 0.0,
        worst_interval_fraction=worst)
