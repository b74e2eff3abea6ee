"""The VMM runtime system — the staged-emulation controller of Fig. 1b.

Responsibilities, mirroring the paper's component (4):

* select between BBT and SBT for translation;
* dispatch through the translation lookup table and run the native
  machine inside the code caches;
* service VM exits: chain exit stubs, interpret complex instructions
  precisely, apply the hot-threshold policy when embedded profiling
  fires;
* manage code-cache pressure (flush and re-translate);
* recover precise architected state at exceptions.

One dispatch loop serves every configuration of Table 2: each dispatch
runs the translation at ``eip`` natively when there is one.  The
configurations differ in one branch only, what becomes of *cold* code:

* **BBT** (VM.soft, VM.be): a miss is translated, and the BBT code
  counts its own executions (embedded software profiling).
* **emulation** (VM.fe in x86-mode, and the Interp+SBT configuration
  of Fig. 2): a miss is emulated a block at a time by the software
  interpreter (the timing layer charges VM.fe's dual-mode decoder for
  it) while a hotspot detector watches block entries.

A block whose BBT translation is quarantined is emulated too, without
profiling.  Every strategy converges to SBT superblocks for hotspots;
the functional behaviour of hot code is identical across
configurations, which the cross-configuration equivalence tests pin
down.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Optional

from repro.faults.plane import fault_point
from repro.interp.interpreter import Interpreter
from repro.isa.fusible.machine import (
    ExitEvent,
    FusibleMachine,
    NativeBudgetExhausted,
    NativeMachineError,
)
from repro.obs.ledger import CycleLedger, runtime_phase_costs
from repro.obs.tracer import EventTracer
from repro.isa.fusible.opcodes import VMService
from repro.isa.x86lite.state import X86State
from repro.hwassist.hotspot_detector import BranchBehaviorBuffer
from repro.hwassist.xltx86 import XLTx86Unit
from repro.translator.bbt import BasicBlockTranslator
from repro.translator.code_cache import (
    CodeCacheFull,
    TranslationDirectory,
    Translation,
)
from repro.translator.sbt import SuperblockTranslator
from repro.vmm.precise_state import copy_arch_to_native, copy_native_to_arch
from repro.vmm.profiling import EdgeProfile, SoftwareProfiler
from repro.vmm.quarantine import TranslationQuarantine

if TYPE_CHECKING:   # repro.core imports this module
    from repro.core.config import MachineConfig

log = logging.getLogger("repro.vmm")

#: Counter value used to disable an already-promoted block's profiling.
COUNTER_DISABLED = 0x4000_0000


class VMRuntimeError(Exception):
    """Base for runtime failures; carries the dispatch context.

    Every subclass records the architected pc, the emulation mode and
    the dispatch count at the failure, so a report names *where in the
    program* and *which execution strategy* broke, not just what.
    """

    def __init__(self, message: str, *, pc: int, mode: str,
                 dispatches: int, native_pc: Optional[int] = None) -> None:
        self.pc = pc
        self.mode = mode
        self.dispatches = dispatches
        self.native_pc = native_pc
        #: flight-recorder dump attached by the runtime when tracing is
        #: on: the last events before the failure, with fault context
        self.flight_recording = None
        native = "" if native_pc is None else f"native_pc={native_pc:#x}, "
        super().__init__(f"{message} [pc={pc:#x}, {native}mode={mode}, "
                         f"dispatch={dispatches}]")


class UopBudgetExhausted(VMRuntimeError):
    """The micro-op budget ran out before the program halted."""


class DispatchBudgetExhausted(VMRuntimeError):
    """The dispatch budget ran out before the program halted."""


class NativeExecutionFault(VMRuntimeError):
    """The native machine faulted running translated code."""


class VMServiceFault(VMRuntimeError):
    """A VMCALL arrived that the VMM cannot service (unknown service
    number, or no side-table entry mapping it back to x86 state)."""


class VMRuntime:
    """Orchestrates staged emulation over one architected machine state.

    ``config`` is the :class:`~repro.core.config.MachineConfig` the
    runtime is built from: its cold-code strategy
    (``initial_emulation``), hot threshold and hotspot detector, the
    superblock, fusion and chaining knobs, the integrity-sweep interval,
    the cycle costs and ``trace``; a ``be`` mode routes the BBT through
    an XLTx86 unit.  ``directory`` replaces the default code caches.
    """

    def __init__(self, state: X86State, config: MachineConfig,
                 directory: Optional[TranslationDirectory] = None) -> None:
        initial_emulation = config.initial_emulation
        if initial_emulation not in ("bbt", "interp", "x86-mode"):
            raise ValueError(f"bad initial emulation {initial_emulation!r}")
        hot_threshold = config.hot_threshold
        self.state = state
        self.memory = state.memory
        self.hot_threshold = hot_threshold
        self.initial_emulation = initial_emulation
        self.enable_chaining = config.enable_chaining

        self.machine = FusibleMachine(self.memory)
        self.directory = directory if directory is not None \
            else TranslationDirectory(self.memory)

        # observability: the cycle ledger is the run's simulated clock
        # (every charge is attributed to exactly one Eq. 1 phase); the
        # tracer only exists when tracing is on, so hot-path hooks are
        # a single ``is not None`` test on non-traced runs
        self.phase_costs = runtime_phase_costs(config.costs)
        self.ledger = CycleLedger()
        self.tracer = EventTracer(clock=lambda: self.ledger.total) \
            if config.trace else None
        self.directory.tracer = self.tracer
        self.directory.words = self.machine.words
        self.directory.loop_heads = self.machine.loop_heads
        x86_mode = initial_emulation == "x86-mode"
        self._interp_category = "x86_mode" if x86_mode else "interpretation"
        self._interp_cpi = self.phase_costs.x86_mode_cpi if x86_mode \
            else self.phase_costs.interp_cpi
        #: ledger category of the currently dispatched translation
        self._exec_category = "bbt_execution"
        self._translate_cpi = {"bbt": self.phase_costs.bbt_translate_cpi,
                               "sbt": self.phase_costs.sbt_translate_cpi}
        self.profiler = BranchBehaviorBuffer(hot_threshold) \
            if config.hotspot_detector == "bbb" \
            else SoftwareProfiler(hot_threshold)
        self.bbt = BasicBlockTranslator(
            self.directory, self.memory,
            embed_profiling=(initial_emulation == "bbt"),
            hot_threshold=hot_threshold,
            xlt_unit=XLTx86Unit() if config.mode == "be" else None)
        self.sbt = SuperblockTranslator(
            self.directory, self.memory, bias=config.superblock_bias,
            max_instrs=config.max_superblock_instrs,
            enable_fusion=config.enable_fusion)
        self.interp = Interpreter(state)

        #: failed-translation ledger: bounded retry, then permanent
        #: degradation to the emulation fallback (never a crash)
        self.quarantine = TranslationQuarantine()
        #: sweep the code caches for corruption every N dispatches
        #: (0 = off; enabled by chaos runs and the config debug knob)
        self.integrity_check_interval = config.integrity_check_interval
        self._dispatches_since_sweep = 0

        # statistics: plain counters, reported by ``stats()`` (the one
        # list that ``ExecutionReport`` is filled from, by field name)
        self.dispatches = 0
        self.vm_exits = 0
        self.interp_one_calls = 0
        self.profile_calls = 0
        self.instructions_interpreted = 0
        self.total_uops_executed = 0
        #: translations evicted by wholesale flushes (work thrown away)
        self.translations_lost_in_flushes = 0
        #: kind -> translations made again of an entry whose copy was
        #: lost (a flushed block, a re-optimized hotspot)
        self.retranslations = {"bbt": 0, "sbt": 0}
        #: ``(entry, kind)`` of every translation ever made
        self._translated_ever: set = set()
        #: warm-start outcome, set by the persist loader (None = cold)
        self.persist_report = None
        # fault / recovery counters (the self-healing story)
        #: translator invocations that raised (real bug or injected)
        self.translation_faults = 0
        #: instructions emulated because a block's translation is
        #: quarantined or degraded (the graceful-degradation path)
        self.interpreted_fallback_instrs = 0
        #: corrupt code-cache copies detected by the integrity sweep
        self.integrity_faults_detected = 0
        #: blocks translated again after a corruption eviction
        self.integrity_retranslations = 0
        #: hotspot candidates that could not be optimized (bogus entry)
        self.hotspot_misfires = 0
        self._integrity_evicted_entries: set = set()

    # -- the dispatch loop ----------------------------------------------------

    def run(self, max_uops: int = 50_000_000,
            max_dispatches: int = 1_000_000) -> None:
        """Emulate until the architected program halts.

        Each dispatch runs the translation at ``eip`` natively and
        services its exit.  Cold code has none: under BBT it is
        translated on the miss, otherwise (and when its translation is
        quarantined or degraded -- translation is an optimization, never
        a prerequisite for forward progress) the block is emulated.
        """
        state = self.state
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("run.begin", mode=self.initial_emulation,
                           pc=f"{state.eip:#x}")
        translates_cold = self.initial_emulation == "bbt"
        lookup = self.directory.lookup
        budget = max_uops
        for _ in range(max_dispatches):
            if state.halted:
                break
            self.dispatches += 1
            self._pre_dispatch()
            entry = state.eip
            translation = lookup(entry)
            if translation is None and translates_cold:
                translation = self._translate("bbt", entry,
                                              self.bbt.translate)
            if translation is None:
                self._emulate_block(entry, profile=not translates_cold)
                continue
            self._exec_category = "bbt_execution" \
                if translation.kind == "bbt" else "sbt_execution"
            copy_arch_to_native(state, self.machine)
            event = self._run_native(translation.native_addr, budget)
            budget -= self._service(event, budget)
            if budget <= 0:
                raise self._fail(UopBudgetExhausted,
                                 "micro-op budget exhausted")
        else:
            raise self._fail(DispatchBudgetExhausted,
                             "dispatch budget exhausted")
        if tracer is not None:
            tracer.instant("run.end", dispatches=self.dispatches,
                           exit_code=state.exit_code)

    def _emulate_block(self, entry: int, profile: bool) -> None:
        """Emulate the basic block at ``entry`` one instruction at a
        time, up to and including its control transfer, or until a
        translated successor exists.

        ``profile`` (the emulating strategies) reports the block entry
        and its control edge to the hotspot detector and promotes what
        turned hot; without it (a quarantined block's fallback) the
        block counts as fallback work instead.
        """
        if profile:
            self.profiler.record_entry(entry)
            self._maybe_optimize_hotspots()
        state = self.state
        block_instrs = 0
        while not state.halted:
            instr = self.interp.step()
            block_instrs += 1
            if instr.is_control_transfer:
                if profile:
                    self.profiler.record_edge(entry, state.eip)
                break
            # non-CTI block boundary: a translated successor exists
            if self.directory.has_translation(state.eip):
                break
        self.instructions_interpreted += block_instrs
        if not profile:
            self.interpreted_fallback_instrs += block_instrs
        self.ledger.charge(self._interp_category,
                           block_instrs * self._interp_cpi, block=entry)

    def _run_native(self, native_addr: int, budget: int,
                    **where) -> ExitEvent:
        """Run translated code to its next VM exit, within ``budget``;
        ``where`` adds to the context an error carries."""
        try:
            return self.machine.run(native_addr, max_uops=budget)
        except NativeBudgetExhausted as exc:
            raise self._fail(UopBudgetExhausted,
                             "micro-op budget exhausted", **where) from exc
        except NativeMachineError as exc:
            raise self._fail(NativeExecutionFault, str(exc), **where) \
                from exc

    def _fail(self, error_class: type, message: str,
              **where) -> VMRuntimeError:
        """``error_class`` with the dispatch context (pc, emulation mode,
        dispatch count, and ``where``).  When tracing is on it carries a
        flight-recorder dump: the last events before the failure plus
        that context (the forensic artifact the chaos harness and
        ``docs/observability.md`` build on)."""
        error = error_class(message, pc=self.state.eip,
                            mode=self.initial_emulation,
                            dispatches=self.dispatches, **where)
        if self.tracer is not None:
            error.flight_recording = self.tracer.flight_dump(
                error_class.__name__, pc=f"{error.pc:#x}", mode=error.mode,
                dispatches=error.dispatches)
        return error

    # -- self-healing ----------------------------------------------------------

    def _pre_dispatch(self) -> None:
        """Dispatch-boundary housekeeping: fault hooks + integrity sweep."""
        fault_point("dispatch", directory=self.directory, runtime=self)
        if not self.integrity_check_interval:
            return
        self._dispatches_since_sweep += 1
        if self._dispatches_since_sweep >= self.integrity_check_interval:
            self._dispatches_since_sweep = 0
            self._integrity_sweep()

    def _integrity_sweep(self) -> None:
        """Detect and evict corrupted code-cache copies.

        A translation whose immutable body no longer matches its install
        checksum is unlinked before it can be dispatched (or reached
        through a chain); its entry re-translates on demand like any
        cold block — detect-and-retranslate, never execute rot.
        """
        directory = self.directory
        found = 0
        for cache in (directory.bbt_cache, directory.sbt_cache):
            for translation in list(cache.translations):
                if directory.verify_integrity(translation):
                    continue
                found += 1
                self.integrity_faults_detected += 1
                self._integrity_evicted_entries.add(
                    (translation.entry, translation.kind))
                log.warning(
                    "code-cache corruption: %s copy of %#x evicted "
                    "(will retranslate on demand)",
                    translation.kind, translation.entry)
                if self.tracer is not None:
                    self.tracer.instant(
                        "integrity.hit", kind=translation.kind,
                        entry=f"{translation.entry:#x}")
                directory.evict(translation)
        if found and self.tracer is not None:
            self.tracer.instant("integrity.sweep", evicted=found)

    # -- translation policy ----------------------------------------------------

    def _translate(self, kind: str, entry: int,
                   translate: Callable[[int], Translation]
                   ) -> Optional[Translation]:
        """``translate(entry)`` into the ``kind`` code cache, flushing
        it once when it is full, unless the translation is larger than
        the whole cache: that one fails without evicting anything.

        Returns None when the entry is quarantined (recent translator
        failure, bounded-backoff retry pending) or permanently degraded:
        the block keeps running as before, emulated or out of its BBT
        copy.  Any translator failure other than cache pressure lands in
        the quarantine; it never propagates out of the dispatch loop.
        """
        if not self.quarantine.may_translate(entry, kind, self.dispatches):
            return None
        tracer = self.tracer
        again = (entry, kind) in self._translated_ever
        if tracer is not None:
            if kind == "sbt":
                tracer.instant("hotspot.promote", entry=f"{entry:#x}")
            elif not again:
                tracer.instant("block.first_exec", entry=f"{entry:#x}")
        start = self.ledger.total
        try:
            try:
                translation = translate(entry)
            except CodeCacheFull as full:
                if full.nbytes > self.directory.cache_for(kind).capacity:
                    raise       # (an empty cache it did not fit, too)
                self._flush(kind)
                translation = translate(entry)
        except (AssertionError, KeyboardInterrupt, SystemExit):
            raise           # verifier findings and aborts are not faults
        except VMRuntimeError:
            raise
        except Exception as exc:   # noqa: BLE001 - degrade, never crash
            self._note_translation_fault(entry, kind, exc)
            return None
        self.ledger.charge(
            f"{kind}_translation",
            translation.instr_count * self._translate_cpi[kind],
            block=entry)
        if tracer is not None:
            fused = {"fused_pairs": translation.fused_pairs} \
                if kind == "sbt" else {}
            tracer.complete(f"translate.{kind}", start, entry=f"{entry:#x}",
                            instrs=translation.instr_count,
                            uops=translation.uop_count, **fused)
        self.quarantine.record_success(entry, kind)
        if (entry, kind) in self._integrity_evicted_entries:
            self._integrity_evicted_entries.discard((entry, kind))
            self.integrity_retranslations += 1
        if again:
            self.retranslations[kind] += 1
        self._translated_ever.add((entry, kind))
        return translation

    def _flush(self, kind: str) -> None:
        """Flush one code cache under pressure.  The only moment the
        set of live words shrinks, so the word table is dropped with it
        and stays bounded by live code: runs already decoded keep their
        steps, the next miss refills."""
        self.translations_lost_in_flushes += len(self.directory.flush(kind))
        self.machine.words.clear()

    def _optimize(self, entry: int) -> None:
        """Run the SBT on a newly hot region.

        SBT failure is pure graceful degradation: the BBT copy (or the
        interpreter) keeps running the region; retries are metered by
        the quarantine and eventually given up on for good.
        """
        if self.directory.has_sbt(entry):
            return
        edges = getattr(self.profiler, "edges", _NO_EDGES)
        self._translate("sbt", entry,
                        lambda seed: self.sbt.translate(seed, edges))

    def _note_translation_fault(self, entry: int, kind: str,
                                error: Exception) -> None:
        self.translation_faults += 1
        record = self.quarantine.record_failure(entry, kind,
                                                self.dispatches, error)
        if self.tracer is not None:
            self.tracer.instant("fault.translation", kind=kind,
                                entry=f"{entry:#x}",
                                error=type(error).__name__)
            self.tracer.instant(
                "quarantine.degrade" if record.degraded
                else "quarantine.add", kind=kind, entry=f"{entry:#x}")
        log.warning(
            "%s translation of %#x failed (%s: %s); %s", kind, entry,
            type(error).__name__, error,
            "degraded to emulation permanently" if record.degraded
            else f"retry after dispatch {record.retry_at}")

    def _maybe_optimize_hotspots(self) -> None:
        bogus = fault_point("hotspot.candidate")
        if bogus is not None:
            # a misfiring detector reported a never-executed address;
            # the attempt must fail into the quarantine harmlessly
            self.hotspot_misfires += 1
            if self.tracer is not None:
                self.tracer.instant("hotspot.misfire",
                                    entry=f"{bogus:#x}")
            self._optimize(bogus)
        while True:
            hot_entry = self.profiler.take_hot()
            if hot_entry is None:
                return
            self._optimize(hot_entry)

    # -- VM exit servicing --------------------------------------------------------

    def _service(self, event: ExitEvent, budget: int = 10_000_000) -> int:
        """Handle one VM exit; returns micro-ops consumed by the episode."""
        consumed = self.machine.uops_executed
        self.machine.uops_executed = 0
        self.total_uops_executed += consumed
        self.ledger.charge(self._exec_category,
                           consumed * self.phase_costs.uop_cycles)
        copy_native_to_arch(self.machine, self.state)
        self.vm_exits += 1

        if event.kind == "halt":
            self.state.halted = True
            return consumed

        if event.kind == "vmexit":
            target = event.value
            self.state.eip = target
            self._note_exit_edge(event, target)
            return consumed

        # vmcall
        service = VMService(event.value)
        if service is VMService.PROFILE:
            self.profile_calls += 1
            self._service_profile(event)
            # resume inside the BBT prologue (machine state is intact)
            remaining = max(budget - consumed, 1)
            resumed = self._run_native(event.resume_pc, remaining,
                                       native_pc=event.resume_pc)
            return consumed + self._service(resumed, remaining)
        if service is VMService.INTERP_ONE:
            self.interp_one_calls += 1
            self._service_interp_one(event)
            return consumed
        raise self._fail(VMServiceFault,
                         f"unknown VMCALL service {event.value}",
                         native_pc=event.native_pc)

    def _note_exit_edge(self, event: ExitEvent, target: int) -> None:
        """Record the control edge and chain the exiting stub."""
        found = self.directory.find_stub(event.native_pc)
        if found is None:
            found = self.directory.find_stub(event.native_pc - 8)
        if found is None:
            return  # exit from non-directory code (bare-metal demos)
        stub, owner = found
        self.profiler.record_edge(owner.entry, target)
        if self.enable_chaining:
            self.directory.request_chain(stub)
        self._maybe_optimize_hotspots()

    def _side_entry(self, event: ExitEvent, service: str) -> tuple:
        """``(x86 address, translation)`` of the VMCALL that exited."""
        resolved = self.directory.resolve_side_table(event.native_pc)
        if resolved is None:
            raise self._fail(VMServiceFault,
                             f"{service} vmcall without side-table entry",
                             native_pc=event.native_pc)
        return resolved

    def _service_profile(self, event: ExitEvent) -> None:
        """A BBT block's countdown counter hit zero: apply hot policy."""
        entry, translation = self._side_entry(event, "PROFILE")
        self.profiler.record_entry(entry, self.hot_threshold)
        self._maybe_optimize_hotspots()
        # disable further countdowns on the (now superseded) BBT copy
        self.bbt.reset_counter(translation, COUNTER_DISABLED)

    def _service_interp_one(self, event: ExitEvent) -> None:
        """Precisely emulate one complex instruction in VMM software.

        This is also the precise-exception path: any architected
        exception (e.g. divide error) propagates from here with exact
        architected state, reconstructed from the native registers.
        """
        x86_addr, _translation = self._side_entry(event, "INTERP_ONE")
        self.state.eip = x86_addr
        self.interp.step()
        self.instructions_interpreted += 1
        self.ledger.charge(self._interp_category, self._interp_cpi,
                           block=x86_addr)

    # -- aggregate statistics ------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of runtime counters across all components: every
        counter the VM reports, each under its ``ExecutionReport``
        field name."""
        return {
            "dispatches": self.dispatches,
            "vm_exits": self.vm_exits,
            "interp_one_calls": self.interp_one_calls,
            "profile_calls": self.profile_calls,
            "instructions_interpreted": self.instructions_interpreted,
            "blocks_translated": self.bbt.blocks_translated,
            "bbt_instrs_translated": self.bbt.instrs_translated,
            "superblocks_translated": self.sbt.superblocks_translated,
            "sbt_instrs_translated": self.sbt.instrs_translated,
            "pairs_fused": self.sbt.pairs_fused,
            "uops_executed": self.total_uops_executed,
            "fused_pairs_executed": self.machine.fused_pairs_seen,
            "xltx86_invocations": (self.bbt.xlt_unit.invocations
                                   if self.bbt.xlt_unit else 0),
            "chains_made": self.directory.chains_made,
            "lookups": self.directory.lookups,
            "bbt_flushes": self.directory.bbt_cache.flushes,
            "sbt_flushes": self.directory.sbt_cache.flushes,
            "translations_lost_in_flushes":
                self.translations_lost_in_flushes,
            "bbt_retranslations": self.retranslations["bbt"],
            "hotspot_retranslations": self.retranslations["sbt"],
            "persist_loaded": (self.persist_report.loaded
                               if self.persist_report else 0),
            "persist_dropped": (self.persist_report.dropped
                                if self.persist_report else 0),
            "persist_chains_restored": (
                self.persist_report.chains_restored
                if self.persist_report else 0),
            # fault / recovery counters (self-healing)
            "translation_faults": self.translation_faults,
            "blocks_quarantined": self.quarantine.quarantined,
            "blocks_degraded": self.quarantine.degraded,
            "interpreted_fallback_instrs":
                self.interpreted_fallback_instrs,
            "integrity_faults_detected": self.integrity_faults_detected,
            "integrity_retranslations": self.integrity_retranslations,
            "hotspot_misfires": self.hotspot_misfires,
            # cycle attribution (Eq. 1 phases; conserved by construction)
            "total_cycles": self.ledger.total,
            "phase_cycles": self.ledger.totals(),
        }


#: the hardware detector (VM.fe) profiles no edges: SBT follows none
_NO_EDGES = EdgeProfile()
