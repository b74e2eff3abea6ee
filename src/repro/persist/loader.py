"""Warm-start loader: re-materialize persisted translations at VM boot.

Stores and servers hand records over unjudged: ``validate_record``
here is the one integrity check on the read path.  For every record it
accepts, the loader

1. re-checks the **source fingerprint** against the freshly loaded
   program memory (a record translated from different bytes is stale and
   dropped);
2. points the BBT profiling prologue at a freshly allocated countdown
   counter **in the bytes**: a record stores the LUI/ORI pair at bytes
   4..12 with zero immediates, the loader checks them against that pair
   and splices in the pair for the new counter; a record dropped
   further down hands its counter back;
3. has the verifier's context walk those bytes through that table (each
   distinct word decoded **once** per VM, no micro-op list), ``origins``
   kept as the record's runs, for **the new native address** handed out
   by the owning code cache: BC/JMP displacements are
   translation-relative, so only exit-stub and side-table anchors need
   rebasing; code that does not decode, or that ``origins`` does not
   cover exactly, is corrupt;
4. runs that context through the translation **verifier rule-pack** (a
   canonical word is its own encoding); a record that violates any
   invariant is dropped, never installed, never executed;
5. installs *the bytes the verifier checked* through
   ``TranslationDirectory.install`` — the same path new translations
   take, so lookup tables, side tables and BBT->SBT redirects are wired
   identically to a cold translation.

After installation the loader eagerly **re-chains** exit stubs whose
targets were also loaded, and disables the countdown counters of BBT
copies superseded by a loaded SBT copy, so the warm VM starts in the
steady state the cold VM ended in.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Dict, List, Set, Tuple

from repro.faults.plane import fault_point
from repro.isa.fusible.encoding import UopDecodeError
from repro.persist.format import (
    STORED_PROLOGUE,
    PersistFormatError,
    materialize,
    record_code,
    source_matches,
    validate_record,
)
from repro.translator.emit import prologue_code
from repro.verify.rules import VerifyContext
from repro.verify.verifier import run_rules
from repro.vmm.runtime import COUNTER_DISABLED

log = logging.getLogger("repro.persist")


@dataclass
class LoadReport:
    """Outcome of one warm-start load (the persistent hit/miss story)."""

    attempted: int = 0
    loaded: int = 0
    bbt_loaded: int = 0
    sbt_loaded: int = 0
    bytes_loaded: int = 0
    chains_restored: int = 0
    #: drop reasons (these are the persistent-cache misses)
    stale_source: int = 0
    corrupt: int = 0
    verifier_rejected: int = 0
    capacity_skipped: int = 0
    duplicate_skipped: int = 0
    #: manifest entries whose object file was unreadable or missing
    missing_objects: int = 0
    #: records that blew up the materialize/encode/install machinery
    #: with an unforeseen error — quarantined (skipped), never fatal
    undecodable: int = 0

    @property
    def dropped(self) -> int:
        return (self.stale_source + self.corrupt +
                self.verifier_rejected + self.capacity_skipped +
                self.missing_objects + self.undecodable)

    def to_dict(self) -> Dict[str, int]:
        """Flat counter dict (``CoDesignedVM.stats()['persist']``)."""
        counters = asdict(self)
        counters["dropped"] = self.dropped
        return counters

    def format(self) -> str:
        lines = [f"warm start: {self.loaded}/{self.attempted} "
                 f"translation(s) loaded "
                 f"({self.bbt_loaded} bbt / {self.sbt_loaded} sbt, "
                 f"{self.bytes_loaded} bytes)",
                 f"chains restored:  {self.chains_restored}"]
        if self.dropped:
            lines.append(
                f"quarantined:      {self.dropped} record(s) skipped "
                f"(stale {self.stale_source}, corrupt {self.corrupt}, "
                f"verifier {self.verifier_rejected}, "
                f"capacity {self.capacity_skipped}, "
                f"missing {self.missing_objects}, "
                f"undecodable {self.undecodable})")
        return "\n".join(lines)


def _rebind_counter(code: bytes, new_addr: int) -> bytes:
    """Point the stored profiling prologue at a freshly allocated
    counter.  The record holds the prologue's first three words (see
    ``emit.profile_prologue``) as :data:`STORED_PROLOGUE`, the LUI/ORI
    pair with zero immediates; code that does not start with them does
    not match its metadata and is corrupt."""
    if not code.startswith(STORED_PROLOGUE):
        raise PersistFormatError("profiling prologue is not the stored one")
    return prologue_code(new_addr)[:len(STORED_PROLOGUE)] \
        + code[len(STORED_PROLOGUE):]


class WarmStartLoader:
    """Loads persisted records into a booted :class:`VMRuntime`."""

    def __init__(self, runtime, rechain: bool = True) -> None:
        self.runtime = runtime
        self.rechain = rechain and runtime.enable_chaining

    def load_records(self, records: List[Dict]) -> LoadReport:
        """Install every loadable record; returns the hit/miss report."""
        report = LoadReport()
        directory = self.runtime.directory
        memory = self.runtime.memory
        words = self.runtime.machine.words
        profiled = self.runtime.bbt.embed_profiling
        new_counter = None
        tracer = getattr(self.runtime, "tracer", None)
        ledger = getattr(self.runtime, "ledger", None)
        phase_costs = getattr(self.runtime, "phase_costs", None)

        def reject(reason: str, record) -> None:
            if new_counter is not None:     # armed, and now unreferenced
                self.runtime.bbt.release_counter(new_counter)
            if tracer is not None:
                fields = record if isinstance(record, dict) else {}
                entry = fields.get("entry")
                tracer.instant(
                    "warmstart.reject", reason=reason,
                    kind=str(fields.get("kind")),
                    entry=f"{entry:#x}" if isinstance(entry, int)
                    else str(entry))

        def install_order(record) -> Tuple[bool, int]:
            """BBT copies first so a following SBT copy installs its
            redirect.  Nothing is validated yet: an element that is not
            even an object sorts last and is counted corrupt below."""
            if not isinstance(record, dict):
                return (True, 0)
            entry = record.get("entry")
            return (record.get("kind") != "bbt",
                    entry if isinstance(entry, int) else 0)

        loaded = []
        seen: Set[Tuple[str, int]] = set()
        for record in sorted(records, key=install_order):
            report.attempted += 1
            new_counter = None
            try:
                validate_record(record)
            except PersistFormatError as error:
                report.corrupt += 1
                reject("corrupt", record)
                log.warning("warm start: corrupt record skipped: %s",
                            error)
                continue
            kind, entry = record["kind"], record["entry"]
            if (kind, entry) in seen:
                report.duplicate_skipped += 1
                reject("duplicate", record)
                continue
            if not source_matches(record, memory):
                report.stale_source += 1
                reject("stale-source", record)
                continue
            cache = directory.cache_for(kind)
            try:
                code = record_code(record)
                if kind == "bbt" and profiled:
                    # the screen must see the final bytes
                    new_counter = self.runtime.bbt.allocate_counter()
                    code = _rebind_counter(code, new_counter)
                # the one walk: the words, the CFG and (on demand) the
                # dataflow facts every rule shares
                screen = VerifyContext.from_code(code, record["origins"],
                                                 words=words)
                translation = materialize(record, cache.reserve(),
                                          len(screen.words))
                translation.counter_addr = new_counter
                screen.translation = translation
            except (PersistFormatError, UopDecodeError) as error:
                report.corrupt += 1
                reject("corrupt", record)
                log.warning("warm start: record %s@%#x failed to "
                            "materialize: %s", kind, entry, error)
                continue
            except (AssertionError, KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                # a record the format layer accepted but the rebuild
                # machinery cannot digest: quarantine it, keep booting
                report.undecodable += 1
                reject("undecodable", record)
                log.warning("warm start: record %s@%#x is undecodable "
                            "(%s: %s); skipped", kind, entry,
                            type(error).__name__, error)
                continue
            if not cache.would_fit(screen.cfg.total_bytes):
                report.capacity_skipped += 1
                reject("capacity", record)
                continue
            # the PR-1 rule-pack gates every install: a record that
            # breaks an invariant is dropped, never executed
            # (fault_point lets chaos runs force a false positive)
            if fault_point("loader.verify", entry=entry, kind=kind) \
                    or not run_rules(screen).ok:
                report.verifier_rejected += 1
                reject("verifier", record)
                log.warning("warm start: record %s@%#x rejected by "
                            "the verifier; skipped", kind, entry)
                continue
            data = screen.image   # the bytes ENC001/ENC002 just checked
            directory.install(data, translation)
            # warm-start work is a startup phase of its own: charge the
            # deserialize/encode/screen cost to the run's ledger
            if ledger is not None and phase_costs is not None:
                ledger.charge("persist_load",
                              translation.instr_count
                              * phase_costs.persist_load_cpi,
                              block=entry)
            if tracer is not None:
                tracer.instant("warmstart.load", kind=kind,
                               entry=f"{entry:#x}", bytes=len(data))
            seen.add((kind, entry))
            loaded.append(translation)
            report.loaded += 1
            report.bytes_loaded += len(data)
            if kind == "bbt":
                report.bbt_loaded += 1
            else:
                report.sbt_loaded += 1

        self._relink(loaded, report)
        if tracer is not None:
            tracer.instant("warmstart.done", loaded=report.loaded,
                           dropped=report.dropped,
                           chains_restored=report.chains_restored)
        self.runtime.persist_report = report
        return report

    def _relink(self, loaded, report: LoadReport) -> None:
        """Restore steady-state linkage among the loaded translations."""
        directory = self.runtime.directory
        if self.rechain:
            for translation in loaded:
                for stub in translation.exits:
                    if directory.request_chain(stub):
                        report.chains_restored += 1
        # a loaded SBT copy supersedes the BBT copy's profiling: stop the
        # countdown so the warm run does not re-trigger promotion
        for translation in loaded:
            if (translation.kind == "bbt"
                    and translation.counter_addr is not None
                    and directory.has_sbt(translation.entry)):
                self.runtime.memory.write_u32(translation.counter_addr,
                                              COUNTER_DISABLED)
