"""Persistent translation cache — warm-start the VM from disk.

The startup transient the paper attacks comes from translating cold
code.  Its hardware assists cut the *per-instruction* cost of that
translation; this subsystem removes the *recurrence*: translations
produced during one run are serialized into an on-disk, content-
addressed repository and rebuilt into the code caches at the
next boot, so a workload's second launch starts warm and pays no BBT
cost for previously-seen blocks.

Pieces:

* :mod:`repro.persist.format` — record serialization, content keys,
  config/image fingerprints;
* :mod:`repro.persist.capture` — snapshot a live translation directory;
* :mod:`repro.persist.repository` — the on-disk store (manifests,
  content-addressed records in packs, LRU eviction);
* :mod:`repro.persist.loader` — boot-time rebuild of each record with
  the VM's own translators, after source re-fingerprinting;
* :mod:`repro.persist.fsck` — consistency check and repair of the
  on-disk store (the ``repro cache fsck`` CLI);
* :mod:`repro.persist.lease` — the cross-process writer lease that
  serializes savers, gc and the cache server's handler threads;
* :mod:`repro.persist.remote` — the fault-tolerant client for the
  shared translation-cache server (:mod:`repro.cacheserver`): per-
  request timeouts, bounded retries with deterministic jitter, a
  circuit breaker, and graceful degradation to the local repository
  and ultimately to cold translation.

Typical use (see ``examples/warm_start.py`` and ``docs/persistence.md``)::

    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(image)
    vm.run()
    vm.save_translations("cache-dir")          # cold run, then snapshot

    vm2 = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm2.load(image)
    vm2.warm_start("cache-dir")                # zero BBT translations
    vm2.run()
"""

from repro.persist.capture import capture_translations
from repro.persist.format import (
    FORMAT_VERSION,
    PersistFormatError,
    config_fingerprint,
    encode_record,
    image_fingerprint,
    parse_record,
    serialize_translation,
    source_matches,
    validate_record,
)
from repro.persist.fsck import FsckReport, fsck_repository
from repro.persist.lease import LeaseBusyError, WriterLease
from repro.persist.loader import LoadReport, WarmStartLoader
from repro.persist.remote import (
    CircuitBreaker,
    RemoteError,
    RemoteRepository,
    RemoteStats,
    RemoteUnavailable,
    ReplicaSet,
    parse_address,
)
from repro.persist.repository import (
    GCReport,
    RepositoryStats,
    TranslationRepository,
)

__all__ = [
    "FORMAT_VERSION",
    "CircuitBreaker",
    "FsckReport",
    "GCReport",
    "LeaseBusyError",
    "LoadReport",
    "PersistFormatError",
    "RemoteError",
    "RemoteRepository",
    "RemoteStats",
    "RemoteUnavailable",
    "ReplicaSet",
    "RepositoryStats",
    "TranslationRepository",
    "WarmStartLoader",
    "WriterLease",
    "capture_translations",
    "config_fingerprint",
    "encode_record",
    "fsck_repository",
    "image_fingerprint",
    "parse_address",
    "parse_record",
    "serialize_translation",
    "source_matches",
    "validate_record",
]
