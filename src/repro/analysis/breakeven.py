"""Breakeven analysis — Fig. 9.

The breakeven point is the time at which a VM configuration has executed
the same cumulative number of instructions as the reference superscalar
(not the earlier point where instantaneous IPCs match).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.core.config import MachineConfig
from repro.timing.sampler import crossover_cycles
from repro.timing.scenarios import Scenario
from repro.timing.startup_sim import simulate_startup
from repro.workloads.trace import generate_workload
from repro.workloads.winstone import AppProfile


@dataclass
class BreakevenRow:
    """Per-application breakeven cycles for each VM configuration."""

    app: str
    cycles_by_config: Dict[str, float]

    def capped(self, cap: float = 200e6) -> Dict[str, float]:
        """Values clipped at ``cap`` (Fig. 9 clips its y-axis at 200M and
        labels taller bars with their actual values)."""
        return {name: min(value, cap)
                for name, value in self.cycles_by_config.items()}


def breakeven_for_app(app: AppProfile,
                      vm_configs: Iterable[MachineConfig],
                      reference: MachineConfig,
                      dyn_instrs: int = 500_000_000,
                      seed: int = 0,
                      scenario: Scenario = Scenario.MEMORY_STARTUP
                      ) -> BreakevenRow:
    """Simulate one app under every configuration; measure breakevens."""
    workload = generate_workload(app, dyn_instrs=dyn_instrs, seed=seed)
    ref_result = simulate_startup(reference, workload, scenario)
    cycles_by_config: Dict[str, float] = {}
    for config in vm_configs:
        vm_result = simulate_startup(config, workload, scenario)
        cycles_by_config[config.name] = crossover_cycles(
            vm_result.series, ref_result.series, start=1e4)
    return BreakevenRow(app=app.name, cycles_by_config=cycles_by_config)


def format_breakeven(value: float) -> str:
    """Human form: '13.3M', '402M', or 'never' (no breakeven in range)."""
    if math.isinf(value):
        return "never"
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    return f"{value / 1e6:.1f}M"
