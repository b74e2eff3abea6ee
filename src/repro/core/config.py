"""Machine configurations — Table 2 of the paper.

Four machine models share one microarchitecture substrate (ROB, issue
buffer, pipeline width, cache hierarchy) and differ in how cold and hot
x86 code is handled:

=============  ==========================  =================================
configuration  cold x86 code               hotspot x86 code
=============  ==========================  =================================
Ref            hardware x86 decoders       hardware x86 decoders (no opt)
VM.soft        software BBT (83 cyc/inst)  software SBT (fused macro-ops)
VM.be          BBT + XLTx86 (20 cyc/inst)  same SBT
VM.fe          dual-mode decoders (≈Ref)   same SBT
Interp+SBT     software interpreter        same SBT (threshold 25)
=============  ==========================  =================================

These dataclasses carry both the *functional* knobs (initial emulation
strategy, hot threshold, profiling source) and the *timing* constants
(per-instruction translation costs, latencies) consumed by
:mod:`repro.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

#: Hot threshold derived from Eq. 2 (Section 3.2): N = Δ_SBT/(p-1)
#: = 1200/0.15 = 8000.
DEFAULT_HOT_THRESHOLD = 8000

#: Hot threshold for the interpreter-based configuration (Section 3,
#: "derived using the method described in Section 3.2" with interpreter
#: emulation costs).
INTERP_HOT_THRESHOLD = 25


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (sizes in bytes, latency in cycles)."""

    size: int
    assoc: int
    line_size: int
    latency: int


@dataclass(frozen=True)
class PipelineConfig:
    """Superscalar pipeline resources (Table 2)."""

    fetch_bytes: int = 16
    width: int = 3                    # decode/rename/issue/retire
    issue_queue_slots: int = 36
    rob_entries: int = 128
    load_queue_slots: int = 32
    store_queue_slots: int = 20
    physical_registers: int = 128
    #: extra frontend stages for hardware x86 decode (Ref and VM.fe carry
    #: the two-level decoders; VM.soft/VM.be fetch pre-decoded micro-ops)
    x86_decode_stages: int = 2


@dataclass(frozen=True)
class TranslationCosts:
    """Per-instruction translation costs (measured values from the paper).

    ``None`` disables the corresponding mechanism in a configuration.
    """

    #: BBT cycles per x86 instruction (83 software / 20 with XLTx86).
    bbt_cycles_per_instr: Optional[float] = None
    #: BBT native instructions per x86 instruction (Δ_BBT = 105).
    bbt_native_instrs_per_instr: float = 105.0
    #: SBT overhead per hot x86 instruction (Δ_SBT = 1674 native instrs;
    #: ~1500 cycles at the VMM's own IPC).
    sbt_cycles_per_instr: Optional[float] = 1500.0
    sbt_native_instrs_per_instr: float = 1674.0
    #: Interpreter cycles per x86 instruction (10x-100x slower than
    #: native; 45 sits in the middle of the paper's range and calibrates
    #: Fig. 2's interpretation curve).
    interp_cycles_per_instr: Optional[float] = None
    #: XLTx86 latency in cycles (Section 4.2).
    xltx86_latency: int = 4
    #: Warm-start load cost per persisted x86 instruction: deserialize,
    #: re-encode at the new native address and screen with the verifier
    #: — one linear pass over the micro-ops, roughly an order of
    #: magnitude cheaper than software BBT translation (83 cyc/instr).
    persist_load_cycles_per_instr: float = 12.0


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine configuration."""

    name: str
    #: 'ref' | 'soft' | 'be' | 'fe' | 'interp'
    mode: str
    #: 'native' (Ref), 'bbt', 'interp', or 'x86-mode' (dual-mode decoder)
    initial_emulation: str
    hot_threshold: int = DEFAULT_HOT_THRESHOLD
    #: hotspot detection: 'software' (embedded in BBT code), 'bbb'
    #: (hardware branch behavior buffer), or 'none'
    hotspot_detector: str = "software"
    costs: TranslationCosts = field(default_factory=TranslationCosts)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    l1i: CacheConfig = CacheConfig(64 * 1024, 2, 64, 2)
    l1d: CacheConfig = CacheConfig(64 * 1024, 8, 64, 3)
    l2: CacheConfig = CacheConfig(2 * 1024 * 1024, 8, 64, 12)
    memory_latency: int = 168
    #: superblock formation parameters
    superblock_bias: float = 0.6
    max_superblock_instrs: int = 200
    enable_fusion: bool = True
    enable_chaining: bool = True
    #: sweep the code caches for corrupted translations every N
    #: dispatches, evicting and re-translating on checksum mismatch
    #: (0 = off; armed by chaos runs — see :mod:`repro.faults` and
    #: ``docs/robustness.md``)
    integrity_check_interval: int = 0
    #: record lifecycle events + the flight-recorder ring (see
    #: :mod:`repro.obs` and ``docs/observability.md``); off by default —
    #: disabled tracing costs one pointer test per hook site.  Excluded
    #: from the persistence fingerprint: traced and untraced runs share
    #: warm-start repositories.
    trace: bool = False

    @property
    def is_vm(self) -> bool:
        return self.mode != "ref"

    @property
    def uses_bbt(self) -> bool:
        return self.initial_emulation == "bbt"

    def with_(self, **overrides) -> "MachineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


def ref_superscalar() -> MachineConfig:
    """The conventional superscalar reference (hardware x86 decoders)."""
    return MachineConfig(
        name="Ref: superscalar", mode="ref", initial_emulation="native",
        hotspot_detector="none",
        costs=TranslationCosts(bbt_cycles_per_instr=None,
                               sbt_cycles_per_instr=None))


def vm_soft() -> MachineConfig:
    """Software-only co-designed VM (BBT 83 cycles/instr)."""
    return MachineConfig(
        name="VM.soft", mode="soft", initial_emulation="bbt",
        costs=TranslationCosts(bbt_cycles_per_instr=83.0))


def vm_be() -> MachineConfig:
    """Co-designed VM with the XLTx86 backend unit (BBT 20 cycles/instr)."""
    return MachineConfig(
        name="VM.be", mode="be", initial_emulation="bbt",
        costs=TranslationCosts(bbt_cycles_per_instr=20.0))


def vm_fe() -> MachineConfig:
    """Co-designed VM with dual-mode frontend decoders (no BBT at all)."""
    return MachineConfig(
        name="VM.fe", mode="fe", initial_emulation="x86-mode",
        hotspot_detector="bbb",
        costs=TranslationCosts(bbt_cycles_per_instr=None))


def interp_sbt() -> MachineConfig:
    """Interpretation followed by SBT (the Fig. 2 comparison strategy)."""
    return MachineConfig(
        name="VM: Interp & SBT", mode="interp",
        initial_emulation="interp",
        hot_threshold=INTERP_HOT_THRESHOLD,
        costs=TranslationCosts(bbt_cycles_per_instr=None,
                               interp_cycles_per_instr=45.0))


def VM_CONFIGS() -> Dict[str, MachineConfig]:
    """The three co-designed VM configurations of Fig. 8/9."""
    return {"VM.soft": vm_soft(), "VM.be": vm_be(), "VM.fe": vm_fe()}


def ALL_CONFIGS() -> Dict[str, MachineConfig]:
    """Every simulated configuration, keyed by display name."""
    configs = {"Ref: superscalar": ref_superscalar()}
    configs.update(VM_CONFIGS())
    configs["VM: Interp & SBT"] = interp_sbt()
    return configs


#: Forgiving short spellings of the :func:`ALL_CONFIGS` names.
CONFIG_ALIASES = {"ref": "Ref: superscalar", "soft": "VM.soft",
                  "be": "VM.be", "fe": "VM.fe",
                  "interp": "VM: Interp & SBT"}


def resolve_config(name: str) -> MachineConfig:
    """The configuration called ``name``, or the one it is an alias of;
    ``ValueError`` names every spelling when there is none."""
    configs = ALL_CONFIGS()
    key = CONFIG_ALIASES.get(name, name)
    if key not in configs:
        raise ValueError(f"unknown configuration {name!r}; choose from "
                         f"{sorted(configs) + sorted(CONFIG_ALIASES)}")
    return configs[key]
