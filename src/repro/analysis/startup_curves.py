"""Startup-curve post-processing for Figs. 2 and 8.

The figures plot *normalized aggregate IPC* — total instructions executed
so far divided by total cycles, normalized to the reference superscalar's
steady-state IPC — against execution time in cycles (log scale), averaged
over the ten Winstone applications.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.timing.sampler import interpolate_at
from repro.timing.startup_sim import StartupResult


def normalized_curve(result: StartupResult, steady_ipc: float,
                     grid: Sequence[float]) -> List[float]:
    """Aggregate-IPC curve normalized to the reference steady IPC."""
    out = []
    for cycles in grid:
        instrs = interpolate_at(result.series, cycles)
        effective = min(cycles, result.total_cycles)
        out.append(instrs / effective / steady_ipc if effective else 0.0)
    return out


def log_grid(first: float = 100.0, last: float = 1e9,
             per_decade: int = 4) -> List[float]:
    """A log-spaced cycle grid for plotting."""
    points = []
    value = first
    ratio = 10.0 ** (1.0 / per_decade)
    while value <= last * 1.0001:
        points.append(value)
        value *= ratio
    return points


def suite_average_curve(results: Iterable[StartupResult],
                        steady_ipcs: Dict[str, float],
                        grid: Sequence[float]) -> List[float]:
    """Average one configuration's normalized curve over a suite of apps.

    ``steady_ipcs`` maps app name -> reference steady-state IPC (the
    normalization base, per the figures' y-axis).
    """
    curves = [normalized_curve(result, steady_ipcs[result.app_name], grid)
              for result in results]
    if not curves:
        return []
    return [sum(values) / len(values) for values in zip(*curves)]


def half_gain_point(result: StartupResult, reference: StartupResult,
                    steady_gain: float) -> float:
    """Cycles needed to reach half the steady-state gain over the
    reference curve (the paper's 'half performance gain point': VM.fe
    reaches it at 100M cycles, VM.be after 100M).

    ``steady_gain`` is the full steady-state speedup (e.g. 0.08).
    """
    target = 1.0 + steady_gain / 2.0
    grid = sorted(set(result.series.cycles)
                  | set(reference.series.cycles))
    for cycles in grid:
        ref_instrs = interpolate_at(reference.series, cycles)
        vm_instrs = interpolate_at(result.series, cycles)
        if ref_instrs > 1000 and vm_instrs / ref_instrs >= target:
            return cycles
    return math.inf
