"""CoDesignedVM — run x86lite programs under any machine configuration.

This is the primary entry point of the library::

    from repro import CoDesignedVM, assemble, vm_soft

    image = assemble(SOURCE)
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(image)
    report = vm.run()

The same program produces the same architected results under every
configuration (the cross-configuration tests enforce this); what differs
is *how* the work is done — interpretation, BBT translations, superblocks
with fused macro-ops — and therefore the startup cost profile that the
timing layer (:mod:`repro.timing`) models at scale.
"""

from __future__ import annotations

import logging
from dataclasses import fields
from typing import Optional

from repro.core.config import MachineConfig, vm_soft
from repro.core.stats import ExecutionReport
from repro.interp.interpreter import Interpreter
from repro.isa.x86lite.registers import Reg
from repro.isa.x86lite.state import X86State
from repro.memory.address_space import AddressSpace
from repro.memory.loader import DEFAULT_STACK_TOP, Image, load_image
from repro.translator.code_cache import BBT_CACHE_BASE
from repro.vmm.runtime import VMRuntime

log = logging.getLogger("repro.core")


class CoDesignedVM:
    """One machine instance: a configuration plus architected state."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 hot_threshold: Optional[int] = None) -> None:
        self.config = config if config is not None else vm_soft()
        if hot_threshold is not None:
            self.config = self.config.with_(hot_threshold=hot_threshold)
        self.state = X86State(memory=AddressSpace())
        self.state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        self.runtime: Optional[VMRuntime] = None
        self._loaded = False
        self._image: Optional[Image] = None
        #: the repository last used for save/warm_start (stats surface)
        self._last_repository = None

    # -- setup ------------------------------------------------------------

    def load(self, image: Image) -> None:
        """Load a program image (scenario 1's disk-to-memory step)."""
        self._image = image
        self.state.eip = load_image(image, self.state.memory)
        self._loaded = True
        if self.config.is_vm:
            self.runtime = VMRuntime(self.state, self.config)

    def restart(self, warm: bool = True) -> None:
        """Rewind the program for another run.

        ``warm=True`` models the paper's short-context-switch resume
        (scenario 3): architected state and program memory are reset,
        but the code caches, chains and profiling survive, so the second
        run needs no re-translation.  ``warm=False`` models a major
        context switch with evicted translations (scenario 2 again).
        """
        if not self._loaded:
            raise RuntimeError("no image loaded")
        registers = self.state.regs
        for index in range(len(registers)):
            registers[index] = 0
        registers[Reg.ESP] = DEFAULT_STACK_TOP
        self.state.cf = self.state.zf = False
        self.state.sf = self.state.of = False
        self.state.halted = False
        self.state.exit_code = None
        self.state.output.clear()
        # guest memory is the image again and nothing else (the previous
        # run wrote data segments, heap and stack); the concealed code
        # caches and counters live above it and stay
        self.state.memory.drop_pages(0, BBT_CACHE_BASE)
        self.state.eip = load_image(self._image, self.state.memory)
        if self.config.is_vm:
            if warm and self.runtime is not None:
                self.runtime.interp.invalidate_decodes()
            else:
                self.runtime = VMRuntime(self.state, self.config)

    # -- persistent translation cache --------------------------------------

    def _repository(self, repository):
        """Coerce paths to a local repository; pass repository objects
        (local or :class:`~repro.persist.RemoteRepository`) through.

        Remote repositories additionally get the run's tracer bound, so
        client-side retries/fallbacks land in this run's event stream
        and flight recorder.
        """
        from repro.persist import TranslationRepository
        if isinstance(repository, (str, bytes)) or \
                hasattr(repository, "__fspath__"):
            repository = TranslationRepository(repository)
        if hasattr(repository, "bind_tracer") and self.tracer is not None:
            repository.bind_tracer(self.tracer)
        return repository

    def save_translations(self, repository) -> int:
        """Snapshot the current code caches into an on-disk repository.

        ``repository`` is a path or a
        :class:`~repro.persist.TranslationRepository`.  Returns the
        number of newly written records.  Typically called after a cold
        run so the next :meth:`warm_start` boot pays no BBT/SBT cost for
        the blocks seen here.
        """
        from repro.persist import (capture_translations,
                                   config_fingerprint, image_fingerprint)
        if self.runtime is None or not self._loaded:
            raise RuntimeError("no VM runtime to snapshot "
                               "(load an image under a VM config first)")
        records = capture_translations(self.runtime.directory,
                                       self.state.memory)
        repo = self._repository(repository)
        self._last_repository = repo
        return repo.save(
            records, config_fingerprint(self.config),
            image_fingerprint(self._image), config_name=self.config.name)

    def warm_start(self, repository):
        """Rebuild persisted translations into this VM's caches.

        Call after :meth:`load` and before :meth:`run`.  Every record is
        re-fingerprinted against the current program bytes and rebuilt
        by this VM's own translators (a block from its entry, a
        superblock along its path); stale or corrupt records are
        dropped.  Returns the
        :class:`~repro.persist.LoadReport`.
        """
        from repro.persist import (WarmStartLoader, config_fingerprint,
                                   image_fingerprint)
        if self.runtime is None or not self._loaded:
            raise RuntimeError("load an image under a VM config before "
                               "warm-starting")
        repo = self._repository(repository)
        self._last_repository = repo
        config_fp = config_fingerprint(self.config)
        image_fp = image_fingerprint(self._image)
        records, missing = repo.fetch(config_fp, image_fp)
        report = WarmStartLoader(self.runtime).load_records(records)
        report.missing_objects += missing
        log.info("warm start under %s: %d/%d record(s) loaded",
                 self.config.name, report.loaded, report.attempted)
        return report

    # -- observability --------------------------------------------------------

    @property
    def tracer(self):
        """The runtime's event tracer (None unless ``trace=True``)."""
        return self.runtime.tracer if self.runtime is not None else None

    @property
    def ledger(self):
        """The runtime's cycle-attribution ledger (None pre-load)."""
        return self.runtime.ledger if self.runtime is not None else None

    def export_trace(self, metadata: Optional[dict] = None) -> dict:
        """Perfetto-loadable trace of the last run (requires a config
        with ``trace=True``); includes the ledger's phase attribution."""
        from repro.obs.export import export_trace
        if self.runtime is None or self.runtime.tracer is None:
            raise RuntimeError(
                "tracing is not enabled; use a config with trace=True "
                "(e.g. vm_soft().with_(trace=True))")
        meta = {"config": self.config.name}
        meta.update(metadata or {})
        return export_trace(self.runtime.tracer, self.runtime.ledger,
                            metadata=meta)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Full counter snapshot: runtime, warm-start and fault/recovery.

        Extends :meth:`VMRuntime.stats` with the warm-start loader's
        per-reason skip breakdown (``persist``: verifier-rejected,
        fingerprint-stale, corrupt/undecodable, missing, duplicate) so
        operational tooling can see exactly why records were
        quarantined at boot.  Returns ``{}`` for non-VM configurations
        or before an image is loaded.
        """
        if self.runtime is None:
            return {}
        stats = self.runtime.stats()
        report = self.runtime.persist_report
        stats["persist"] = report.to_dict() if report is not None else {}
        remote = getattr(self._last_repository, "remote_stats", None)
        if remote is not None:
            stats["remote"] = remote.to_dict()
        return stats

    # -- execution ------------------------------------------------------------

    def run(self, max_instructions: int = 10_000_000,
            max_uops: int = 50_000_000) -> ExecutionReport:
        """Run the loaded program to completion; returns a report."""
        if not self._loaded:
            raise RuntimeError("no image loaded")
        if not self.config.is_vm:
            interp = Interpreter(self.state)
            interp.run(max_instructions)
            return ExecutionReport(
                config_name=self.config.name,
                exit_code=self.state.exit_code,
                output=list(self.state.output),
                instructions_interpreted=interp.instructions_executed)

        self.runtime.run(max_uops=max_uops)
        stats = self.runtime.stats()
        return ExecutionReport(
            config_name=self.config.name,
            exit_code=self.state.exit_code,
            output=list(self.state.output),
            **{counter.name: stats[counter.name]
               for counter in fields(ExecutionReport)[3:]})


def run_program(source_or_image, config: Optional[MachineConfig] = None,
                hot_threshold: Optional[int] = None,
                max_instructions: int = 10_000_000) -> ExecutionReport:
    """Convenience one-shot: assemble (if needed), load, run."""
    from repro.isa.x86lite.assembler import assemble
    image = (assemble(source_or_image)
             if isinstance(source_or_image, str) else source_or_image)
    vm = CoDesignedVM(config, hot_threshold=hot_threshold)
    vm.load(image)
    return vm.run(max_instructions=max_instructions)
