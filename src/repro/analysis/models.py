"""The paper's analytical models (Section 3.2).

Equation 1 — total translation overhead of a two-stage BBT+SBT system::

    overhead = M_BBT * Δ_BBT + M_SBT * Δ_SBT

Equation 2 — the Jikes-style break-even execution count that sets the hot
threshold::

    N * t_b = (N + Δ_SBT) * (t_b / p)   =>   N = Δ_SBT / (p - 1)

With the paper's measurements (Δ_SBT ≈ 1200 x86 instructions, p = 1.15),
N = 8000 — the hot threshold used by every VM configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Paper-measured parameters (Section 3.2).
PAPER_DELTA_BBT_NATIVE = 105          # native instrs / x86 instr
PAPER_DELTA_SBT_NATIVE = 1674         # native instrs / hot x86 instr
PAPER_M_BBT = 150_000                 # static instrs touched (100M trace)
PAPER_M_SBT = 3_000                   # static instrs above threshold
PAPER_SPEEDUP_P = 1.15                # SBT over BBT code (1.15 - 1.2)


def sbt_breakeven_executions(delta_sbt: float = 1200.0,
                             speedup: float = PAPER_SPEEDUP_P) -> float:
    """Equation 2: executions needed to amortize one SBT translation.

    ``delta_sbt`` is the per-instruction optimization overhead in units
    of the emulated ISA's instructions; ``speedup`` is p, the SBT-over-
    initial-emulation speedup.  The paper's numbers give
    1200 / 0.15 = 8000.
    """
    if speedup <= 1.0:
        raise ValueError("optimization must speed code up (p > 1)")
    return delta_sbt / (speedup - 1.0)


def hot_threshold(delta_sbt: float = 1200.0,
                  speedup: float = PAPER_SPEEDUP_P) -> int:
    """The hot threshold: Eq. 2 rounded to an implementable integer."""
    return int(round(sbt_breakeven_executions(delta_sbt, speedup)))


@dataclass(frozen=True)
class TranslationOverheadModel:
    """Equation 1 with its four parameters."""

    m_bbt: int = PAPER_M_BBT
    m_sbt: int = PAPER_M_SBT
    delta_bbt: float = PAPER_DELTA_BBT_NATIVE
    delta_sbt: float = PAPER_DELTA_SBT_NATIVE

    @property
    def bbt_overhead(self) -> float:
        """Native instructions spent in BBT translation."""
        return self.m_bbt * self.delta_bbt

    @property
    def sbt_overhead(self) -> float:
        """Native instructions spent in SBT translation."""
        return self.m_sbt * self.delta_sbt

    @property
    def total(self) -> float:
        return self.bbt_overhead + self.sbt_overhead

    @property
    def bbt_fraction(self) -> float:
        return self.bbt_overhead / self.total if self.total else 0.0


def translation_overhead(m_bbt: int = PAPER_M_BBT,
                         m_sbt: int = PAPER_M_SBT,
                         delta_bbt: float = PAPER_DELTA_BBT_NATIVE,
                         delta_sbt: float = PAPER_DELTA_SBT_NATIVE
                         ) -> TranslationOverheadModel:
    """Equation 1 as a callable; defaults are the paper's values
    (15.75M + 5.02M native instructions)."""
    return TranslationOverheadModel(m_bbt, m_sbt, delta_bbt, delta_sbt)
