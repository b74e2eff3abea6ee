"""Logarithmic time-series sampling for startup curves.

The paper's Figs. 2/8/11 plot aggregate quantities against execution time
in cycles on a log scale.  :class:`LogSampler` records cumulative
(instructions, activity) values at log-spaced cycle points; because the
simulator advances in piecewise-linear segments (cycles and instructions
grow proportionally within a homogeneous stretch), linear interpolation
at the sample points is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List


@dataclass
class SampledSeries:
    """One sampled startup curve."""

    cycles: List[float] = field(default_factory=list)
    instructions: List[float] = field(default_factory=list)
    #: optional auxiliary channel (e.g. decoder-active cycles)
    aux: List[float] = field(default_factory=list)

    def aggregate_ipc(self) -> List[float]:
        """Total instructions / total cycles at each sample (harmonic-
        mean aggregate IPC, the y-axis of Figs. 2 and 8)."""
        return [instrs / cycles if cycles else 0.0
                for cycles, instrs in zip(self.cycles, self.instructions)]


class LogSampler:
    """Record (cycles, instructions, aux) at log-spaced cycle points."""

    def __init__(self, first: float = 100.0, per_decade: int = 8,
                 max_cycles: float = 1e10) -> None:
        if first <= 0 or per_decade < 1:
            raise ValueError("invalid sampler parameters")
        self._points: List[float] = []
        value = first
        ratio = 10.0 ** (1.0 / per_decade)
        while value <= max_cycles:
            self._points.append(value)
            value *= ratio
        self._next_index = 0
        self.series = SampledSeries()
        self._cycles = 0.0
        self._instructions = 0.0
        self._aux = 0.0

    @property
    def cycles(self) -> float:
        return self._cycles

    @property
    def instructions(self) -> float:
        return self._instructions

    def advance(self, delta_cycles: float, delta_instructions: float,
                delta_aux: float = 0.0) -> None:
        """Advance time by one piecewise-linear segment."""
        if delta_cycles < 0 or delta_instructions < 0:
            raise ValueError("time cannot run backwards")
        start_cycles = self._cycles
        end_cycles = start_cycles + delta_cycles
        while self._next_index < len(self._points) and \
                self._points[self._next_index] <= end_cycles:
            point = self._points[self._next_index]
            fraction = ((point - start_cycles) / delta_cycles
                        if delta_cycles else 1.0)
            self.series.cycles.append(point)
            self.series.instructions.append(
                self._instructions + fraction * delta_instructions)
            self.series.aux.append(self._aux + fraction * delta_aux)
            self._next_index += 1
        self._cycles = end_cycles
        self._instructions += delta_instructions
        self._aux += delta_aux

    def finish(self) -> SampledSeries:
        """Append the final point and return the series."""
        if not self.series.cycles or \
                self.series.cycles[-1] != self._cycles:
            self.series.cycles.append(self._cycles)
            self.series.instructions.append(self._instructions)
            self.series.aux.append(self._aux)
        return self.series


def interpolate_at(series: SampledSeries, cycles: float) -> float:
    """Instructions completed by ``cycles`` (linear between samples)."""
    points = series.cycles
    values = series.instructions
    if not points or cycles <= 0:
        return 0.0
    if cycles <= points[0]:
        return values[0] * cycles / points[0]
    if cycles >= points[-1]:
        return values[-1]
    low = 0
    high = len(points) - 1
    while high - low > 1:
        mid = (low + high) // 2
        if points[mid] <= cycles:
            low = mid
        else:
            high = mid
    span = points[high] - points[low]
    fraction = (cycles - points[low]) / span if span else 0.0
    return values[low] + fraction * (values[high] - values[low])


def crossover_cycles(first: SampledSeries, second: SampledSeries,
                     start: float = 1000.0) -> float:
    """Breakeven point: the time after which ``first`` has *permanently*
    caught up with ``second`` in completed instructions (the paper's
    definition — "the time at which the co-designed VM has executed the
    same number of instructions").  Both curves briefly track each other
    early on, so the scan finds the LAST grid point where ``first`` is
    still behind and reports the following one.  Returns ``math.inf`` if
    ``first`` is still behind at the end of the sampled range."""
    grid = [cycles for cycles in sorted(set(first.cycles)
                                        | set(second.cycles))
            if cycles >= start]
    if not grid:
        return math.inf
    last_behind = None
    for cycles in grid:
        if interpolate_at(first, cycles) < interpolate_at(second, cycles):
            last_behind = cycles
    if last_behind is None:
        return grid[0]
    if last_behind == grid[-1]:
        return math.inf
    after = [cycles for cycles in grid if cycles > last_behind]
    return after[0]
