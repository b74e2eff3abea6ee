"""Warm-start loader: rebuild persisted translations at VM boot.

Stores and servers hand records over unjudged: ``validate_record``
here is the one integrity check on the read path.  No record holds
code, so the loader runs no screen: it rebuilds every translation with
the VM's own translators, from the VM's own memory.  It takes a pull in
two steps, records in install order (BBT records first):

1. **validate and rebuild**: every record's ``validate_record``, then
   its rebuild -- a basic block **derived** at its entry by the cold
   path's translator; a superblock's **source fingerprint** checked
   against memory, its trace **re-formed** with the record's path as
   its edge profile and built by the cold path's SBT (a path memory
   does not form is corrupt); a record made from bytes memory no longer
   holds is stale;
2. **install in order**: the duplicate check; the rebuild's drop;
   capacity; the install gate (the ``loader.verify`` fault point: a
   chaos run's verifier false positive); then the install: a block
   through ``BasicBlockTranslator.install`` (which hands it its
   counter), a superblock through ``SuperblockTranslator.install``; both
   through ``TranslationDirectory.install``, the path new translations
   take.  No translator counter moves: a rebuilt translation counts as
   loaded.

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
from repro.isa.x86lite.decoder import DecodeError
from repro.memory.address_space import MemoryError_
from repro.persist.format import (
    PersistFormatError,
    source_matches,
    validate_record,
)
from repro.vmm.profiling import EdgeProfile
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
    #: records that blew up the rebuild/install machinery with an
    #: unforeseen error — quarantined (skipped), never fatal
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

        # step 1: every record validated and rebuilt; (kind, entry) is
        # None where the record is not valid.  Rebuilding them all
        # before installing any measured 15 % cheaper than interleaving
        # the two, on the 206 blocks of the wide benchmark image
        items: List[tuple] = []     # ((kind, entry), record, built)
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
                          _attempt(record, lambda: self._rebuild(record))))

        # step 2: in order, each record that was rebuilt is installed
        loaded = report.installed
        installed: Set[Tuple[str, int]] = set()
        for key, record, built in items:
            if key in installed:
                drop(record, "duplicate_skipped", "duplicate")
                continue
            if isinstance(built, tuple):
                drop(record, *built)
                continue
            kind, entry = key
            if not directory.cache_for(kind).would_fit(built.size):
                drop(record, "capacity_skipped", "capacity")
                continue
            # the install gate: chaos runs force a verifier false
            # positive here (the translation is dropped, never executed)
            if fault_point("loader.verify", entry=entry, kind=kind):
                drop(record, "verifier_rejected", "verifier",
                     f"record {kind}@{entry:#x} rejected by the "
                     f"verifier; skipped")
                continue
            translator = runtime.bbt if kind == "bbt" else runtime.sbt
            translation = translator.install(built)
            # warm-start work is a startup phase of its own: charge the
            # rebuild cost to the run's ledger
            runtime.ledger.charge("persist_load",
                                  translation.instr_count * load_cpi,
                                  block=entry)
            if tracer is not None:
                tracer.instant("warmstart.load", kind=kind,
                               entry=f"{entry:#x}", bytes=built.size)
            installed.add(key)
            loaded.append(translation)
            report.loaded += 1
            report.bytes_loaded += built.size
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

    def _rebuild(self, record):
        """A validated record's block or superblock, rebuilt from the
        current memory by the cold path's translator, or why it is
        dropped: stale where memory no longer holds its source (or a
        block's entry does not decode), corrupt where a superblock's
        path is not the trace memory forms along it."""
        runtime, entry = self.runtime, record["entry"]
        if record["kind"] == "bbt":
            try:
                block = runtime.bbt.derive(entry)
            except (DecodeError, MemoryError_):
                return _STALE
            return block if block.source.hex() == record["source"][0][1] \
                else _STALE
        if not source_matches(record, runtime.memory):
            return _STALE
        # the path as a profile that saw it once: at each JCC, formation
        # follows the next entry, and the head after the last if it loops
        path, loops = record["x86_addrs"], record["loops"]
        edges = EdgeProfile()
        for source, target in zip(path, path[1:] + ([entry] if loops
                                                    else [])):
            edges.record(source, target)
        try:
            superblock = runtime.sbt.form(entry, edges)
        except (DecodeError, MemoryError_):
            superblock = None
        if superblock is None or superblock.entries != path \
                or superblock.loops_to_head != loops:
            return ("corrupt", "corrupt", f"record sbt@{entry:#x} names a "
                    f"path its memory does not form; skipped")
        return runtime.sbt.build(superblock)

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
