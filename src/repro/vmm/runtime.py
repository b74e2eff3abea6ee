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

Two execution strategies cover the paper's configurations:

* **translated** (VM.soft, VM.be): cold code runs via BBT translations
  with embedded software profiling.
* **interpretive** (VM.fe in x86-mode, and the Interp+SBT configuration
  of Fig. 2): cold code is emulated instruction-at-a-time by the
  software interpreter (the timing layer charges VM.fe's dual-mode
  decoder for it) while a hotspot detector watches block entries.

Both converge to SBT superblocks for hotspots; the functional behaviour
of hot code is identical across configurations, which the cross-
configuration equivalence tests pin down.
"""

from __future__ import annotations

import logging
from typing import Optional, Union

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
from repro.translator.bbt import BasicBlockTranslator
from repro.translator.code_cache import (
    CodeCacheFull,
    TranslationDirectory,
    Translation,
)
from repro.translator.sbt import SuperblockTranslator
from repro.vmm.precise_state import copy_arch_to_native, copy_native_to_arch
from repro.vmm.profiling import SoftwareProfiler
from repro.vmm.quarantine import TranslationQuarantine

log = logging.getLogger("repro.vmm")

#: Counter value used to disable an already-promoted block's profiling.
COUNTER_DISABLED = 0x4000_0000


class VMRuntimeError(Exception):
    """Base for runtime failures; carries the dispatch context.

    Every subclass records the architected pc, the emulation mode and
    the dispatch count at the failure, so a report names *where in the
    program* and *which execution strategy* broke, not just what.
    """

    def __init__(self, message: str, *, pc: Optional[int] = None,
                 mode: Optional[str] = None,
                 dispatches: Optional[int] = None,
                 native_pc: Optional[int] = None) -> None:
        self.pc = pc
        self.mode = mode
        self.dispatches = dispatches
        self.native_pc = native_pc
        #: flight-recorder dump attached by the runtime when tracing is
        #: on: the last events before the failure, with fault context
        self.flight_recording = None
        context = []
        if pc is not None:
            context.append(f"pc={pc:#x}")
        if native_pc is not None:
            context.append(f"native_pc={native_pc:#x}")
        if mode is not None:
            context.append(f"mode={mode}")
        if dispatches is not None:
            context.append(f"dispatch={dispatches}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


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
    """Orchestrates staged emulation over one architected machine state."""

    def __init__(self, state: X86State,
                 hot_threshold: int = 8000,
                 initial_emulation: str = "bbt",
                 profiler: Union[SoftwareProfiler, BranchBehaviorBuffer,
                                 None] = None,
                 directory: Optional[TranslationDirectory] = None,
                 superblock_bias: float = 0.6,
                 max_superblock_instrs: int = 200,
                 enable_fusion: bool = True,
                 enable_chaining: bool = True,
                 integrity_check_interval: int = 0,
                 costs=None,
                 trace: bool = False) -> None:
        if initial_emulation not in ("bbt", "interp", "x86-mode"):
            raise ValueError(f"bad initial emulation {initial_emulation!r}")
        self.state = state
        self.memory = state.memory
        self.hot_threshold = hot_threshold
        self.initial_emulation = initial_emulation
        self.enable_chaining = enable_chaining

        self.machine = FusibleMachine(self.memory)
        self.directory = directory if directory is not None \
            else TranslationDirectory(self.memory)

        # observability: the cycle ledger is the run's simulated clock
        # (every charge is attributed to exactly one Eq. 1 phase); the
        # tracer only exists when tracing is on, so hot-path hooks are
        # a single ``is not None`` test on non-traced runs
        self.phase_costs = runtime_phase_costs(costs)
        self.ledger = CycleLedger()
        self.tracer = EventTracer(clock=lambda: self.ledger.total) \
            if trace else None
        self.directory.tracer = self.tracer
        self.directory.words = self.machine.words
        if initial_emulation == "x86-mode":
            self._interp_category = "x86_mode"
            self._interp_cpi = self.phase_costs.x86_mode_cpi
        else:
            self._interp_category = "interpretation"
            self._interp_cpi = self.phase_costs.interp_cpi
        #: ledger category of the currently dispatched translation
        self._exec_category = "bbt_execution"
        self.profiler = profiler if profiler is not None \
            else SoftwareProfiler(hot_threshold)
        self.bbt = BasicBlockTranslator(
            self.directory, self.memory,
            embed_profiling=(initial_emulation == "bbt"),
            hot_threshold=hot_threshold)
        self.sbt = SuperblockTranslator(
            self.directory, self.memory, bias=superblock_bias,
            max_instrs=max_superblock_instrs, enable_fusion=enable_fusion)
        self.interp = Interpreter(state)

        #: failed-translation ledger: bounded retry, then permanent
        #: degradation to the emulation fallback (never a crash)
        self.quarantine = TranslationQuarantine()
        #: sweep the code caches for corruption every N dispatches
        #: (0 = off; enabled by chaos runs and the config debug knob)
        self.integrity_check_interval = integrity_check_interval
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
        #: blocks translated again after their copy was lost to a flush
        self.bbt_retranslations = 0
        #: hotspots that had to be re-optimized after an SBT flush
        self.hotspot_retranslations = 0
        self._bbt_entries_ever: set = set()
        self._sbt_entries_ever: set = set()
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

    # -- top-level run loops ------------------------------------------------

    def run(self, max_uops: int = 50_000_000,
            max_dispatches: int = 1_000_000) -> None:
        """Emulate until the architected program halts."""
        if self.tracer is not None:
            self.tracer.instant("run.begin", mode=self.initial_emulation,
                                pc=f"{self.state.eip:#x}")
        if self.initial_emulation == "bbt":
            self._run_translated(max_uops, max_dispatches)
        else:
            self._run_interpretive(max_uops, max_dispatches)
        if self.tracer is not None:
            self.tracer.instant("run.end", dispatches=self.dispatches,
                                exit_code=self.state.exit_code)

    def _run_translated(self, max_uops: int, max_dispatches: int) -> None:
        """VM.soft / VM.be style: everything runs out of the code caches.

        Almost: a block whose translation is quarantined or permanently
        degraded is emulated by the interpreter instead — translation is
        an optimization, never a prerequisite for forward progress.
        """
        budget = max_uops
        for _ in range(max_dispatches):
            if self.state.halted:
                return
            self.dispatches += 1
            self._pre_dispatch()
            translation = self._lookup_or_translate(self.state.eip)
            if translation is None:       # quarantined: emulate the block
                self._interpret_fallback_block()
                continue
            self._exec_category = "bbt_execution" \
                if translation.kind == "bbt" else "sbt_execution"
            copy_arch_to_native(self.state, self.machine)
            event = self._run_native(translation.native_addr, budget)
            budget -= self._service(event, budget)
            if budget <= 0:
                raise self._vm_error(UopBudgetExhausted(
                    "micro-op budget exhausted", **self._error_context()))
        raise self._vm_error(DispatchBudgetExhausted(
            "dispatch budget exhausted", **self._error_context()))

    def _run_interpretive(self, max_uops: int,
                          max_dispatches: int) -> None:
        """VM.fe x86-mode / Interp+SBT: emulate cold code one instruction
        at a time, watching block entries for hotspots."""
        budget = max_uops
        for _ in range(max_dispatches):
            if self.state.halted:
                return
            self.dispatches += 1
            self._pre_dispatch()
            entry = self.state.eip
            sbt_translation = self.directory.lookup(entry)
            if sbt_translation is not None:
                self._exec_category = "sbt_execution"
                copy_arch_to_native(self.state, self.machine)
                event = self._run_native(sbt_translation.native_addr,
                                         budget)
                budget -= self._service(event, budget)
                if budget <= 0:
                    raise self._vm_error(UopBudgetExhausted(
                        "micro-op budget exhausted",
                        **self._error_context()))
                continue
            self.profiler.record_entry(entry)
            self._maybe_optimize_hotspots()
            # emulate one basic block (up to and including its CTI)
            block_instrs = 0
            while not self.state.halted:
                instr = self.interp.step()
                block_instrs += 1
                if instr.is_control_transfer:
                    self.profiler.record_edge(entry, self.state.eip)
                    break
                # non-CTI block boundary: a translated successor exists
                if self.directory.has_translation(self.state.eip):
                    break
            self.instructions_interpreted += block_instrs
            self.ledger.charge(self._interp_category,
                               block_instrs * self._interp_cpi,
                               block=entry)
        else:
            raise self._vm_error(DispatchBudgetExhausted(
                "dispatch budget exhausted", **self._error_context()))

    def _run_native(self, native_addr: int, budget: int,
                    **where) -> ExitEvent:
        """Run translated code to its next VM exit, within ``budget``;
        ``where`` adds to the context an error carries."""
        try:
            return self.machine.run(native_addr, max_uops=budget)
        except NativeBudgetExhausted as exc:
            raise self._vm_error(UopBudgetExhausted(
                "micro-op budget exhausted", **where,
                **self._error_context())) from exc
        except NativeMachineError as exc:
            raise self._vm_error(NativeExecutionFault(
                str(exc), **where, **self._error_context())) from exc

    def _error_context(self) -> dict:
        return {"pc": self.state.eip, "mode": self.initial_emulation,
                "dispatches": self.dispatches}

    def _vm_error(self, error: VMRuntimeError) -> VMRuntimeError:
        """Attach a flight-recorder dump before an error propagates.

        Returns the same exception, with ``flight_recording`` populated
        when tracing is on: the last events before the failure plus the
        faulting pc/mode/dispatch context (the forensic artifact the
        chaos harness and ``docs/observability.md`` build on).
        """
        if self.tracer is not None and error.flight_recording is None:
            error.flight_recording = self.tracer.flight_dump(
                type(error).__name__,
                pc=f"{self.state.eip:#x}" if error.pc is None
                else f"{error.pc:#x}",
                mode=error.mode or self.initial_emulation,
                dispatches=error.dispatches
                if error.dispatches is not None else self.dispatches)
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

    def _interpret_fallback_block(self) -> None:
        """Emulate one basic block whose translation is unavailable.

        Mirrors the interpretive strategy's inner loop: step precisely
        up to and including the block's control transfer, or until a
        translated successor exists.  Architected results are identical
        to the translated path by construction (the cross-configuration
        equivalence tests pin this down).
        """
        entry = self.state.eip
        block_instrs = 0
        while not self.state.halted:
            instr = self.interp.step()
            block_instrs += 1
            if instr.is_control_transfer:
                break
            if self.directory.has_translation(self.state.eip):
                break
        self.instructions_interpreted += block_instrs
        self.interpreted_fallback_instrs += block_instrs
        self.ledger.charge(self._interp_category,
                           block_instrs * self._interp_cpi, block=entry)

    # -- translation policy ----------------------------------------------------

    def _lookup_or_translate(self, entry: int) -> Optional[Translation]:
        """The installed translation for ``entry``, translating on miss.

        Returns None when the entry is quarantined (recent translator
        failure, bounded-backoff retry pending) or permanently degraded
        — the caller must emulate the block instead.  Any translator
        failure other than cache pressure lands in the quarantine; it
        never propagates out of the dispatch loop.
        """
        translation = self.directory.lookup(entry)
        if translation is not None:
            return translation
        if not self.quarantine.may_translate(entry, "bbt",
                                             self.dispatches):
            return None
        tracer = self.tracer
        if tracer is not None and entry not in self._bbt_entries_ever:
            tracer.instant("block.first_exec", entry=f"{entry:#x}")
        start = self.ledger.total
        try:
            try:
                translation = self.bbt.translate(entry)
            except CodeCacheFull:
                self._flush("bbt")
                translation = self.bbt.translate(entry)
        except (AssertionError, KeyboardInterrupt, SystemExit):
            raise           # verifier findings and aborts are not faults
        except VMRuntimeError:
            raise
        except Exception as exc:   # noqa: BLE001 - degrade, never crash
            self._note_translation_fault(entry, "bbt", exc)
            return None
        self.ledger.charge(
            "bbt_translation",
            translation.instr_count * self.phase_costs.bbt_translate_cpi,
            block=entry)
        if tracer is not None:
            tracer.complete("translate.bbt", start, entry=f"{entry:#x}",
                            instrs=translation.instr_count,
                            uops=translation.uop_count)
        self.quarantine.record_success(entry, "bbt")
        if (entry, "bbt") in self._integrity_evicted_entries:
            self._integrity_evicted_entries.discard((entry, "bbt"))
            self.integrity_retranslations += 1
        if entry in self._bbt_entries_ever:
            self.bbt_retranslations += 1
        self._bbt_entries_ever.add(entry)
        return translation

    def _flush(self, kind: str) -> None:
        """Flush one code cache under pressure.  The only moment the
        set of live words shrinks, so the word table is dropped with it
        and stays bounded by live code: runs already decoded keep their
        steps, the next miss refills."""
        self.translations_lost_in_flushes += len(self.directory.flush(kind))
        self.machine.words.clear()

    def _optimize(self, entry: int) -> Optional[Translation]:
        """Run the SBT on a newly hot region.

        SBT failure is pure graceful degradation: the BBT copy (or the
        interpreter) keeps running the region; retries are metered by
        the quarantine and eventually given up on for good.
        """
        if self.directory.has_sbt(entry):
            return None
        if not self.quarantine.may_translate(entry, "sbt",
                                             self.dispatches):
            return None
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("hotspot.promote", entry=f"{entry:#x}")
        start = self.ledger.total
        edges = getattr(self.profiler, "edges", _NO_EDGES)
        try:
            try:
                translation = self.sbt.translate(entry, edges)
            except CodeCacheFull:
                self._flush("sbt")
                translation = self.sbt.translate(entry, edges)
        except (AssertionError, KeyboardInterrupt, SystemExit):
            raise
        except VMRuntimeError:
            raise
        except Exception as exc:   # noqa: BLE001 - degrade, never crash
            self._note_translation_fault(entry, "sbt", exc)
            return None
        self.ledger.charge(
            "sbt_translation",
            translation.instr_count * self.phase_costs.sbt_translate_cpi,
            block=entry)
        if tracer is not None:
            tracer.complete("translate.sbt", start, entry=f"{entry:#x}",
                            instrs=translation.instr_count,
                            uops=translation.uop_count,
                            fused_pairs=translation.fused_pairs)
        self.quarantine.record_success(entry, "sbt")
        if (entry, "sbt") in self._integrity_evicted_entries:
            self._integrity_evicted_entries.discard((entry, "sbt"))
            self.integrity_retranslations += 1
        if entry in self._sbt_entries_ever:
            self.hotspot_retranslations += 1
        self._sbt_entries_ever.add(entry)
        return translation

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
        raise self._vm_error(VMServiceFault(
            f"unknown VMCALL service {event.value}",
            native_pc=event.native_pc, **self._error_context()))

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

    def _service_profile(self, event: ExitEvent) -> None:
        """A BBT block's countdown counter hit zero: apply hot policy."""
        resolved = self.directory.resolve_side_table(event.native_pc)
        if resolved is None:
            raise self._vm_error(VMServiceFault(
                "PROFILE vmcall without side-table entry",
                native_pc=event.native_pc, **self._error_context()))
        entry, translation = resolved
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
        resolved = self.directory.resolve_side_table(event.native_pc)
        if resolved is None:
            raise self._vm_error(VMServiceFault(
                "INTERP_ONE vmcall without side-table entry",
                native_pc=event.native_pc, **self._error_context()))
        x86_addr, _translation = resolved
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
            "bbt_retranslations": self.bbt_retranslations,
            "hotspot_retranslations": self.hotspot_retranslations,
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


class _StaticEdges:
    """Edge-profile stand-in when only hardware detection exists (VM.fe)."""

    def biased_successor(self, source: int, bias: float = 0.6):
        return None


_NO_EDGES = _StaticEdges()
