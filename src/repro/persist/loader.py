"""Warm-start loader: re-materialize persisted translations at VM boot.

Stores and servers hand records over unjudged: ``validate_record``
here is the one integrity check on the read path.  The loader takes a
pull in two steps, records in install order (BBT records first):

1. **read and screen, once**: every record's ``validate_record``, then
   its read against the freshly loaded program memory -- a basic block
   **derived** at its entry by the cold path's translator, a
   superblock's **source fingerprint** checked and its code read
   through the VM's word table as one verifier ``Segment`` (code that
   does not decode, or holds a word with a don't-care bit set, is
   corrupt); a record made from bytes memory no longer holds is stale.
   Then the **verifier rule-pack** runs once over every segment as one
   ``VerifyContext``;
2. **install in order**: the duplicate check; the read's drop; a
   superblock's **new native address**; capacity; the verdict (a
   superblock that violates any invariant never runs); then a block
   goes through ``BasicBlockTranslator.install`` (which hands it its
   counter), a superblock's own screened bytes through
   ``TranslationDirectory.install``, the path new translations take.

After installation the loader eagerly **re-chains** exit stubs whose
targets were also loaded, and disables the countdown counters of BBT
copies superseded by a loaded SBT copy, so the warm VM starts in the
steady state the cold VM ended in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from typing import Dict, List, Set, Tuple

from repro.faults.plane import fault_point
from repro.isa.fusible.encoding import UopDecodeError
from repro.isa.x86lite.decoder import DecodeError
from repro.memory.address_space import MemoryError_
from repro.persist.format import (
    PersistFormatError,
    materialize,
    source_matches,
    validate_record,
)
from repro.verify.rules import Segment, VerifyContext
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
    #: every translation installed, in install order (not a counter:
    #: never in :meth:`to_dict`); what this VM's caches hold besides
    #: these is what the load did not bring in
    installed: List = field(default_factory=list, repr=False,
                            compare=False)

    @property
    def dropped(self) -> int:
        return (self.stale_source + self.corrupt +
                self.verifier_rejected + self.capacity_skipped +
                self.missing_objects + self.undecodable)

    def to_dict(self) -> Dict[str, int]:
        """Flat counter dict (``CoDesignedVM.stats()['persist']``)."""
        counters = {spec.name: getattr(self, spec.name)
                    for spec in fields(self) if spec.name != "installed"}
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


#: why a record made from bytes memory no longer holds is dropped
_STALE = ("stale_source", "stale-source", None)


def _attempt(record, work):
    """``work()``, or why the record is dropped: ``(LoadReport field,
    reason, log message)``.  A record the format layer accepted but the
    rebuild machinery cannot digest is quarantined, never fatal."""
    try:
        return work()
    except (PersistFormatError, UopDecodeError) as error:
        return ("corrupt", "corrupt", f"record {record['kind']}@"
                f"{record['entry']:#x} failed to materialize: {error}")
    except (AssertionError, KeyboardInterrupt, SystemExit):
        raise
    except Exception as error:
        return ("undecodable", "undecodable", f"record {record['kind']}@"
                f"{record['entry']:#x} is undecodable "
                f"({type(error).__name__}: {error}); skipped")


class WarmStartLoader:
    """Loads persisted records into a booted :class:`VMRuntime`."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def load_records(self, records: List[Dict]) -> LoadReport:
        """Install every loadable record; returns the hit/miss report."""
        report = LoadReport()
        runtime = self.runtime
        directory = runtime.directory
        bbt = runtime.bbt
        tracer = runtime.tracer
        load_cpi = runtime.phase_costs.persist_load_cpi

        def drop(record, field: str, reason: str, message=None) -> None:
            setattr(report, field, getattr(report, field) + 1)
            if message is not None:
                log.warning("warm start: %s", message)
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

        # step 1: every validated record read, and one screen of every
        # superblock.  (kind, entry) is None where the record is not valid.
        items: List[tuple] = []     # ((kind, entry), record, read)
        for record in sorted(records, key=install_order):
            report.attempted += 1
            try:
                validate_record(record)
            except PersistFormatError as error:
                items.append((None, record, ("corrupt", "corrupt",
                                             f"corrupt record skipped: "
                                             f"{error}")))
                continue
            items.append(((record["kind"], record["entry"]), record,
                          _attempt(record, lambda: self._derive(record)
                                   if record["kind"] == "bbt"
                                   else self._read(record))))
        failed = self._screen([read for _key, _record, read in items
                               if isinstance(read, Segment)])

        # step 2: in order, each record that passed is installed
        loaded = report.installed
        installed: Set[Tuple[str, int]] = set()
        for key, record, read in items:
            if key in installed:
                drop(record, "duplicate_skipped", "duplicate")
                continue
            if isinstance(read, tuple):
                drop(record, *read)
                continue
            kind, entry = key
            cache = directory.cache_for(kind)
            if kind == "sbt":
                translation = _attempt(record, lambda: materialize(
                    record, len(read.words)))
                if isinstance(translation, tuple):
                    drop(record, *translation)
                    continue
            if not cache.would_fit(read.size):
                drop(record, "capacity_skipped", "capacity")
                continue
            # the verifier rule-pack gates every superblock's install: a
            # record that breaks an invariant is dropped, never executed
            # (fault_point lets chaos runs force a false positive)
            if fault_point("loader.verify", entry=entry, kind=kind) \
                    or read in failed:
                drop(record, "verifier_rejected", "verifier",
                     f"record {kind}@{entry:#x} rejected by the "
                     f"verifier; skipped")
                continue
            if kind == "bbt":
                translation = bbt.install(read)
            else:       # the record's own bytes, as screened
                directory.install(read.code, translation, record["exits"],
                                  record["side_table"])
            # warm-start work is a startup phase of its own: charge the
            # derive/deserialize/screen cost to the run's ledger
            runtime.ledger.charge("persist_load",
                                  translation.instr_count * load_cpi,
                                  block=entry)
            if tracer is not None:
                tracer.instant("warmstart.load", kind=kind,
                               entry=f"{entry:#x}", bytes=read.size)
            installed.add(key)
            loaded.append(translation)
            report.loaded += 1
            report.bytes_loaded += read.size
            if kind == "bbt":
                report.bbt_loaded += 1
            else:
                report.sbt_loaded += 1

        self._relink(loaded, report)
        if tracer is not None:
            tracer.instant("warmstart.done", loaded=report.loaded,
                           dropped=report.dropped,
                           chains_restored=report.chains_restored)
        runtime.persist_report = report
        return report

    def _derive(self, record):
        """A validated BBT record's block, derived at its entry from the
        current memory by the cold path's translator; stale where the
        entry does not decode or its bytes are not the record's source."""
        try:
            block = self.runtime.bbt.derive(record["entry"])
        except (DecodeError, MemoryError_):
            return _STALE
        return block if block.source.hex() == record["source"][0][1] \
            else _STALE

    def _read(self, record):
        """A validated SBT record's own checks: its source against
        memory, its code read through the VM's word table as a
        ``Segment``; stale where memory no longer holds its source."""
        if not source_matches(record, self.runtime.memory):
            return _STALE
        return Segment(bytes.fromhex(record["code"]), record["origins"],
                       self.runtime.machine.words, exits=record["exits"],
                       side_table=record["side_table"])

    def _screen(self, segments: List[Segment]) -> Set[Segment]:
        """The rule-pack run once over ``segments`` as one context: the
        segments a rule fired in."""
        if not segments:
            return set()
        ctx = VerifyContext(words=self.runtime.machine.words,
                            segments=segments)
        return {segments[violation.segment]
                for violation in run_rules(ctx).violations}

    def _relink(self, loaded, report: LoadReport) -> None:
        """Restore steady-state linkage among the loaded translations."""
        directory = self.runtime.directory
        if self.runtime.enable_chaining:
            for translation in loaded:
                for stub in translation.exits:
                    if directory.request_chain(stub):
                        report.chains_restored += 1
        # a loaded SBT copy supersedes the BBT copy's profiling: stop the
        # countdown so the warm run does not re-trigger promotion
        for translation in loaded:
            if translation.kind == "bbt" and \
                    directory.has_sbt(translation.entry):
                self.runtime.bbt.reset_counter(translation, COUNTER_DISABLED)
