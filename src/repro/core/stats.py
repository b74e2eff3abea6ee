"""Execution reports for functional VM runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ExecutionReport:
    """Outcome of running one program under one machine configuration.

    A VM run fills every field after ``output`` from the key of the same
    name in :meth:`repro.vmm.runtime.VMRuntime.stats`."""

    config_name: str
    exit_code: Optional[int]
    output: List[object] = field(default_factory=list)
    #: instructions executed through the interpreter (all of them for the
    #: reference configuration; cold/complex-instruction counts for VMs)
    instructions_interpreted: int = 0
    #: micro-ops executed natively out of the code caches
    uops_executed: int = 0
    fused_pairs_executed: int = 0
    blocks_translated: int = 0
    superblocks_translated: int = 0
    bbt_instrs_translated: int = 0
    sbt_instrs_translated: int = 0
    pairs_fused: int = 0
    chains_made: int = 0
    vm_exits: int = 0
    interp_one_calls: int = 0
    profile_calls: int = 0
    bbt_flushes: int = 0
    sbt_flushes: int = 0
    xltx86_invocations: int = 0
    #: code-cache pressure: translations evicted by wholesale flushes and
    #: the work repeated afterwards (the numbers the persistent
    #: translation cache exists to drive down)
    translations_lost_in_flushes: int = 0
    bbt_retranslations: int = 0
    hotspot_retranslations: int = 0
    #: warm-start outcome (persistent translation cache; 0s = cold boot)
    persist_loaded: int = 0
    persist_dropped: int = 0
    persist_chains_restored: int = 0
    #: fault / recovery counters (all 0 on a healthy run): translator
    #: failures absorbed by the quarantine, blocks degraded to permanent
    #: interpretation, and code-cache corruptions healed by the
    #: integrity sweep (see docs/robustness.md)
    translation_faults: int = 0
    blocks_quarantined: int = 0
    blocks_degraded: int = 0
    interpreted_fallback_instrs: int = 0
    integrity_faults_detected: int = 0
    integrity_retranslations: int = 0
    hotspot_misfires: int = 0
    #: simulated-cycle attribution from the runtime's ledger (every
    #: cycle in exactly one Eq. 1 phase; ``sum(phase_cycles.values())
    #: == total_cycles`` by construction — see :mod:`repro.obs.ledger`)
    total_cycles: float = 0.0
    phase_cycles: Dict[str, float] = field(default_factory=dict)

    @property
    def fused_uop_fraction(self) -> float:
        """Fraction of dynamic micro-ops that executed inside fused pairs
        (the paper reports 49% for Winstone, 57% for SPECint steady
        state)."""
        if not self.uops_executed:
            return 0.0
        return 2.0 * self.fused_pairs_executed / self.uops_executed

    def summary(self) -> str:
        lines = [f"=== {self.config_name} ===",
                 f"exit code:            {self.exit_code}",
                 *([f"simulated cycles:     {self.total_cycles:.0f}"]
                   if self.total_cycles else []),
                 f"interpreted instrs:   {self.instructions_interpreted}",
                 f"native micro-ops:     {self.uops_executed}",
                 f"fused pair fraction:  {self.fused_uop_fraction:.1%}",
                 f"BBT blocks:           {self.blocks_translated}",
                 f"SBT superblocks:      {self.superblocks_translated}",
                 f"chains made:          {self.chains_made}",
                 f"VM exits:             {self.vm_exits}",
                 f"cache flushes:        {self.bbt_flushes} bbt / "
                 f"{self.sbt_flushes} sbt",
                 f"translations lost:    "
                 f"{self.translations_lost_in_flushes}",
                 f"re-translations:      {self.bbt_retranslations} bbt / "
                 f"{self.hotspot_retranslations} hotspot"]
        if self.persist_loaded or self.persist_dropped:
            lines.append(f"warm-start loads:     {self.persist_loaded} "
                         f"({self.persist_dropped} dropped, "
                         f"{self.persist_chains_restored} chains "
                         f"restored)")
        if self.translation_faults or self.blocks_degraded or \
                self.blocks_quarantined:
            lines.append(f"translator faults:    "
                         f"{self.translation_faults} "
                         f"({self.blocks_quarantined} quarantined, "
                         f"{self.blocks_degraded} degraded to interp, "
                         f"{self.interpreted_fallback_instrs} fallback "
                         f"instrs)")
        if self.integrity_faults_detected:
            lines.append(f"cache corruptions:    "
                         f"{self.integrity_faults_detected} healed "
                         f"({self.integrity_retranslations} "
                         f"retranslated)")
        if self.hotspot_misfires:
            lines.append(f"hotspot misfires:     {self.hotspot_misfires} "
                         f"absorbed")
        if self.xltx86_invocations:
            lines.append(f"XLTx86 invocations:   {self.xltx86_invocations}")
        return "\n".join(lines)
