"""Cycle-attribution ledger — Eq. 1 as a per-run instrument.

The paper decomposes startup time (Eq. 1) as::

    S = M_bbt * T_bbt  +  N_bbt * E_bbt  +  M_sbt * T_sbt
        + N_sbt * E_sbt  +  N_int * E_int  (+ fixed costs)

i.e. every cycle belongs to exactly one phase: translating cold blocks,
executing BBT code, optimizing hotspots, executing SBT code, or
interpreting.  :class:`CycleLedger` enforces that accounting *by
construction*: each :meth:`CycleLedger.charge` advances the run's total
simulated-cycle clock by exactly the cycles it attributes, so

    ``sum(ledger.totals().values()) == ledger.total``

always holds — no cycle unattributed, none double-counted
(:meth:`conserved` asserts it; ``tests/test_obs.py`` and the benches
check it on real runs).

On top of the phase totals the ledger keeps

* a **per-interval timeline** on a log-cycle grid (Fig. 2's x-axis), so
  a single run yields the startup transient phase-by-phase;
* **per-block attributions** for the translation phases, answering
  "where did the BBT overhead go" with a top-N profile.

Both the functional runtime (:mod:`repro.vmm.runtime`, cost-model
weighted) and the timing simulator (:mod:`repro.timing.startup_sim`,
exact event costs) feed one of these; the ledger is also the tracer's
monotonic clock, which is what makes traced runs deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

log = logging.getLogger("repro.obs")

#: Map of ledger categories to the Eq. 1 term they instantiate.  The
#: timing simulator's extra categories (cold-miss stalls, disk load,
#: repository re-materialization) are fixed costs outside the five
#: M/N·T/E products; they map to labeled overhead terms so the Eq. 1
#: view still sums to the run total.
EQ1_PHASES: Dict[str, str] = {
    # functional-runtime categories
    "bbt_translation": "M_bbt*T_bbt",
    "bbt_execution": "N_bbt*E_bbt",
    "sbt_translation": "M_sbt*T_sbt",
    "sbt_execution": "N_sbt*E_sbt",
    "interpretation": "N_int*E_int",
    "x86_mode": "N_x86*E_x86",
    # timing-simulator categories
    "bbt_emulation": "N_bbt*E_bbt",
    "sbt_emulation": "N_sbt*E_sbt",
    "interp": "N_int*E_int",
    "execution": "N_ref*E_ref",
    "cold_miss": "overhead:cold_miss",
    "disk_load": "overhead:disk_load",
    "persist_load": "overhead:persist_load",
}


@dataclass(frozen=True)
class RuntimePhaseCosts:
    """Per-instruction cycle weights for the functional runtime's clock.

    The functional VM executes micro-ops, not cycles; the ledger turns
    its work into a simulated-cycle clock with the same constants the
    timing layer charges: one cycle per native micro-op, the measured
    BBT/SBT translation costs, and the interpreter CPI.
    """

    bbt_translate_cpi: float = 83.0
    sbt_translate_cpi: float = 1500.0
    interp_cpi: float = 45.0
    x86_mode_cpi: float = 1.0
    persist_load_cpi: float = 12.0
    uop_cycles: float = 1.0


def runtime_phase_costs(costs) -> RuntimePhaseCosts:
    """Derive runtime clock weights from a
    :class:`~repro.core.config.TranslationCosts` (a mechanism it
    disables keeps the default weight)."""
    return RuntimePhaseCosts(
        bbt_translate_cpi=costs.bbt_cycles_per_instr or 83.0,
        sbt_translate_cpi=costs.sbt_cycles_per_instr or 1500.0,
        interp_cpi=costs.interp_cycles_per_instr or 45.0,
        persist_load_cpi=costs.persist_load_cycles_per_instr,
    )


class CycleLedger:
    """Conservative cycle accounting with timeline and block profiles."""

    def __init__(self, first_interval: float = 100.0,
                 intervals_per_decade: int = 2) -> None:
        self.total = 0.0
        self._phases: Dict[str, float] = {}
        #: category -> {block addr -> cycles} (translation phases only
        #: unless callers pass blocks for execution too)
        self._blocks: Dict[str, Dict[int, float]] = {}
        # log-grid timeline state
        self._first_interval = first_interval
        self._ratio = 10.0 ** (1.0 / intervals_per_decade)
        self._interval_end = first_interval
        self._intervals: List[Dict[str, float]] = [{}]
        self.charges = 0

    # -- recording -----------------------------------------------------------

    def charge(self, category: str, cycles: float,
               block: Optional[int] = None) -> None:
        """Attribute ``cycles`` to ``category``, advancing the clock."""
        if cycles <= 0:
            return
        self.charges += 1
        self._phases[category] = self._phases.get(category, 0.0) + cycles
        if block is not None:
            per_block = self._blocks.setdefault(category, {})
            per_block[block] = per_block.get(block, 0.0) + cycles
        # split the charge across log-grid interval boundaries so the
        # timeline is piecewise-exact (same idea as timing.sampler)
        remaining = cycles
        while remaining > 0:
            room = self._interval_end - self.total
            if remaining < room:
                step = remaining
            else:
                step = room
            bucket = self._intervals[-1]
            bucket[category] = bucket.get(category, 0.0) + step
            self.total += step
            remaining -= step
            if self.total >= self._interval_end:
                self._interval_end *= self._ratio
                self._intervals.append({})

    # -- views ---------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Per-category cycle totals (insertion-independent order)."""
        return dict(sorted(self._phases.items()))

    def eq1_breakdown(self) -> Dict[str, float]:
        """Totals folded onto the paper's Eq. 1 terms."""
        folded: Dict[str, float] = {}
        for category, cycles in self._phases.items():
            term = EQ1_PHASES.get(category, f"other:{category}")
            folded[term] = folded.get(term, 0.0) + cycles
        return dict(sorted(folded.items()))

    def conserved(self, tolerance: float = 1e-6) -> bool:
        """Whether attributed cycles exactly cover the clock total."""
        attributed = sum(self._phases.values())
        scale = max(self.total, 1.0)
        return abs(attributed - self.total) <= tolerance * scale

    def timeline(self) -> List[Dict]:
        """Per-interval phase breakdown over the log-cycle grid.

        Each entry is ``{"start": c0, "end": c1, "phases": {...}}``;
        intervals with no attributed cycles are omitted.  This is the
        Fig. 2 startup transient of *this* run, phase by phase.
        """
        out: List[Dict] = []
        start = 0.0
        end = self._first_interval
        for bucket in self._intervals:
            if bucket:
                out.append({"start": start,
                            "end": min(end, self.total),
                            "phases": dict(sorted(bucket.items()))})
            start, end = end, end * self._ratio
        return out

    def top_blocks(self, category: str = "bbt_translation",
                   limit: int = 10) -> List[Tuple[int, float]]:
        """The blocks that consumed the most cycles in ``category``."""
        per_block = self._blocks.get(category, {})
        ranked = sorted(per_block.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:limit]

    def block_categories(self) -> List[str]:
        return sorted(self._blocks)

    def to_dict(self) -> Dict:
        """JSON-friendly dump (trace export embeds this)."""
        return {
            "total_cycles": self.total,
            "phase_cycles": self.totals(),
            "eq1": self.eq1_breakdown(),
            "conserved": self.conserved(),
            "timeline": self.timeline(),
            "top_blocks": {
                category: [{"block": f"{addr:#x}", "cycles": cycles}
                           for addr, cycles in self.top_blocks(category)]
                for category in self.block_categories()
            },
        }

    def format(self, title: str = "cycle attribution") -> str:
        """Human-readable phase table."""
        lines = [title, "-" * len(title)]
        total = max(self.total, 1e-12)
        for category, cycles in self.totals().items():
            term = EQ1_PHASES.get(category, "-")
            lines.append(f"  {category:18s} {cycles:14.0f} cycles "
                         f"({100.0 * cycles / total:5.1f}%)  [{term}]")
        lines.append(f"  {'total':18s} {self.total:14.0f} cycles "
                     f"({'conserved' if self.conserved() else 'LEAK'})")
        return "\n".join(lines)
