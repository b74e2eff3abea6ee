"""Synthetic models of the Winstone2004 Business applications.

The paper evaluates on full-system traces of ten Windows applications,
which are proprietary.  Each :class:`AppProfile` below is a statistical
stand-in calibrated to everything the paper reports about the suite:

* static working sets around M_BBT ≈ 150K instructions on 100M-instruction
  traces, with roughly 3K instructions (M_SBT) above the 8000-execution
  hot threshold (Section 3.2);
* the execution-frequency mixture of Fig. 3 — most static code executes
  tens of times, while a warm tail carries the dynamic weight, peaking in
  the 10K–100K bucket;
* hotspot coverage ≈ 63% of dynamic instructions at 100M, rising past 75%
  at 500M (Section 5.3);
* reference-superscalar aggregate IPCs spanning the paper's reported
  simulation lengths (333M–923M cycles for 500M instructions);
* per-application steady-state VM speedups averaging +8%, with *Project*
  at +3% (the paper singles it out as the app whose VM configurations
  cannot break even within 500M instructions).

The execution-frequency model is a two-component lognormal mixture over
*regions* (loops): a ``cold`` component holding most static code and a
``warm`` component carrying the dynamic weight.  Component parameters are
quoted at the 100M-instruction reference length and scale linearly with
trace length, which reproduces the paper's observation that longer runs
shift Fig. 3's dynamic curve rightward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class AppProfile:
    """Statistical model of one benchmark application."""

    name: str
    #: static x86 instructions touched on the reference (100M) trace
    static_instrs: int
    #: mean basic-block size in architected instructions
    avg_block_size: float = 5.5
    #: average encoded bytes per architected instruction
    bytes_per_instr: float = 3.7
    #: average micro-op bytes emitted per architected instruction
    uop_bytes_per_instr: float = 4.8
    #: reference superscalar aggregate IPC (steady state)
    ipc_ref: float = 1.0
    #: steady-state VM speedup over the reference (Section 2: avg +8%)
    vm_speedup: float = 1.08
    #: BBT-code IPC relative to SBT code (Section 5.3: 82-85%), on the
    #: compute (non-stall) portion of execution
    bbt_relative_ipc: float = 0.84
    #: fraction of steady-state cycles that are memory stalls; stalls are
    #: independent of translation quality, so they dilute the BBT-code
    #: penalty during the transient (Section 5.3: "for program startup
    #: transient, cache misses dilute CPU IPC performance")
    stall_fraction: float = 0.35
    #: dynamic fraction of micro-ops fused in hotspot code (Section 2)
    fused_fraction: float = 0.49
    # frequency mixture (region execution counts @ 100M instructions)
    cold_fraction: float = 0.85
    cold_median: float = 30.0
    cold_sigma: float = 1.5
    warm_median: float = 210.0
    warm_sigma: float = 2.6
    #: data-side cold misses per instruction during first-touch execution
    data_cold_misses_per_instr: float = 0.03
    #: code-discovery shape: region first-use positions are
    #: Beta(discovery_alpha, discovery_beta) — small alpha front-loads
    #: discovery (lots of once-run startup code), large beta thins the
    #: late tail
    discovery_alpha: float = 0.35
    discovery_beta: float = 2.5
    #: how strongly hot regions start earlier than cold ones (0..1);
    #: real applications enter their dominant loops early
    hot_early_pull: float = 0.5

    @property
    def x86_bytes(self) -> int:
        """Approximate text footprint of the working set."""
        return int(self.static_instrs * self.bytes_per_instr)


#: The ten Winstone2004 Business applications (Fig. 9's x-axis), with
#: per-app parameters spread to produce the suite-level aggregates above.
#: Working-set sizes and IPCs are our modeling choices (the paper reports
#: only suite-level numbers plus Project's +3% speedup).
WINSTONE_APPS: List[AppProfile] = [
    AppProfile("Access", static_instrs=175_000, ipc_ref=0.85,
               vm_speedup=1.09, warm_median=200.0),
    AppProfile("Excel", static_instrs=205_000, ipc_ref=1.15,
               vm_speedup=1.07, warm_median=170.0, cold_median=35.0,
               discovery_alpha=0.45),
    AppProfile("FrontPage", static_instrs=130_000, ipc_ref=0.95,
               vm_speedup=1.10, warm_median=220.0),
    AppProfile("IE", static_instrs=120_000, ipc_ref=1.05,
               vm_speedup=1.08, warm_median=240.0),
    AppProfile("Norton", static_instrs=250_000, ipc_ref=1.45,
               vm_speedup=1.06, warm_median=150.0, cold_median=40.0,
               discovery_alpha=0.5, hot_early_pull=0.3),
    AppProfile("Outlook", static_instrs=185_000, ipc_ref=0.80,
               vm_speedup=1.09, warm_median=190.0),
    AppProfile("PowerPoint", static_instrs=160_000, ipc_ref=1.00,
               vm_speedup=1.08, warm_median=210.0, hot_early_pull=0.35),
    AppProfile("Project", static_instrs=150_000, ipc_ref=0.70,
               vm_speedup=1.03, warm_median=215.0),
    AppProfile("Winzip", static_instrs=90_000, ipc_ref=1.35,
               vm_speedup=1.12, warm_median=360.0, cold_fraction=0.80,
               hot_early_pull=0.7),
    AppProfile("Word", static_instrs=140_000, ipc_ref=0.90,
               vm_speedup=1.08, warm_median=205.0),
]

_BY_NAME: Dict[str, AppProfile] = {app.name: app for app in WINSTONE_APPS}


def winstone_app(name: str) -> AppProfile:
    """Look up one application model by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown Winstone app {name!r}; have "
                       f"{sorted(_BY_NAME)}") from None


def winstone_suite() -> List[AppProfile]:
    """All ten application models, in Fig. 9 order."""
    return list(WINSTONE_APPS)
