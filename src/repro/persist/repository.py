"""The on-disk translation repository.

Layout (all JSON, no external dependencies)::

    <root>/
        meta.json                  # format version, LRU clock, object index
        objects/<key>.json         # a record's stored text, by its key
        manifests/<cfg>__<img>.json  # entry list per (config, image) pair

Objects are content-addressed (see :mod:`repro.persist.format`), so the
same translation saved under two configurations that emit identical code
is stored once.  Manifests bind a (config fingerprint, image
fingerprint) pair to the set of object keys that warm-start it; a config
or program change selects a different manifest and never sees stale
objects.

Eviction is LRU over a logical clock: a save or load makes the objects
it touches the most recently used, ticking the clock and rewriting
``meta.json`` only where that changes the order (docs/persistence.md,
"Eviction").  :meth:`gc` drops the least-recently-used objects until the
store fits a byte budget, then strips dangling references from every
manifest.

Crash safety
------------
Every file the repository writes — meta, manifests, objects — goes
through a journaled two-step (write ``<name>.tmp``, fsync, then atomic
``os.replace``), so a crash mid-write leaves either the old content or
a stray ``.tmp`` file, never a torn JSON document; the fsync before the
rename means a power cut cannot journal an *empty-but-renamed* file
either (rename metadata reaching disk before the data would otherwise
do exactly that).  Reads treat any
unreadable or invalid file as absent; a corrupt or missing
``meta.json`` is *rebuilt* from the objects directory instead of
wiping the store.  I/O errors during save/load are absorbed
(``io_errors`` counts them): a failed object write just drops that
record from the manifest, a failed LRU stamp loses nothing but
recency.  :meth:`fsck` detects, quarantines and repairs whatever
damage accumulates anyway (see ``docs/robustness.md``).

Concurrency
-----------
Writers (``save``, ``gc``, repairing ``fsck``) serialize on the
file-based :class:`~repro.persist.lease.WriterLease`, so concurrent
savers from many processes — or the cache server's handler threads —
never interleave the object-write -> manifest -> meta sequence, and a
gc pass can never evict objects a mid-flight save's manifest is about
to reference.  A load reads lease-free; its LRU stamp, where one must
be written, rewrites the index, so it is made under the lease (one try,
from a fresh read) or not at all.  A writer that cannot get the lease
degrades (saves/evicts nothing, counts ``lease_failures``) instead of
blocking the VM.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.faults.plane import fault_point
from repro.persist.format import FORMAT_VERSION, Record, parse_record
from repro.persist.lease import DEFAULT_TIMEOUT, WriterLease

log = logging.getLogger("repro.persist")


def parse_object(key, text) -> Optional[Record]:
    """A stored object's text as a record, or None when it is not a
    JSON object stored under its own key.  Whether the record is
    *intact* is its installer's finding (``validate_record``)."""
    record = parse_record(text)
    if record is None or record.get("key") != key:
        return None
    return record


@dataclass
class RepositoryStats:
    """Snapshot of repository contents (the ``cache stats`` CLI)."""

    root: str
    objects: int = 0
    total_bytes: int = 0
    clock: int = 0
    manifests: List[Dict] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"repository: {self.root}",
                 f"objects:    {self.objects} "
                 f"({self.total_bytes} bytes)",
                 f"clock:      {self.clock}"]
        if not self.manifests:
            lines.append("manifests:  none")
        for manifest in self.manifests:
            lines.append(
                f"manifest {manifest['name']}: "
                f"{manifest['entries']} entries "
                f"({manifest['bbt']} bbt / {manifest['sbt']} sbt), "
                f"saved at clock {manifest['saved_clock']}")
        return "\n".join(lines)


@dataclass
class GCReport:
    """Outcome of one eviction pass."""

    budget_bytes: int
    evicted_objects: int = 0
    evicted_bytes: int = 0
    remaining_objects: int = 0
    remaining_bytes: int = 0
    #: the writer lease stayed contended: nothing was evicted
    lease_busy: bool = False

    def format(self) -> str:
        if self.lease_busy:
            return ("gc: writer lease busy (a save is in flight); "
                    "nothing evicted")
        return (f"gc: evicted {self.evicted_objects} object(s) / "
                f"{self.evicted_bytes} bytes; "
                f"{self.remaining_objects} object(s) / "
                f"{self.remaining_bytes} bytes remain "
                f"(budget {self.budget_bytes})")


class TranslationRepository:
    """Content-addressed persistent store for translation records."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifests_dir = self.root / "manifests"
        self.quarantine_dir = self.root / "quarantine"
        self.meta_path = self.root / "meta.json"
        #: I/O failures absorbed instead of propagated (this process)
        self.io_errors = 0
        #: times meta.json had to be rebuilt from the objects dir
        self.meta_recoveries = 0
        #: writer-lease acquisitions that timed out (save/gc degraded)
        self.lease_failures = 0

    def writer_lease(self) -> WriterLease:
        """A fresh lease handle on this repository's lock file."""
        return WriterLease(self.root)

    # -- journaled I/O ------------------------------------------------------

    def _write_json(self, path: Path, payload,
                    indent: Optional[int] = None) -> bool:
        """Journaled write: tmp file + atomic rename.  ``payload`` is a
        document, or a ``str`` that already is one's text (a record's
        stored text, written verbatim).

        Returns False (and counts the failure) instead of raising, so a
        full disk or a flaky device degrades to a smaller/staler store,
        never a crashed VM or a torn document.

        The journal name is unique per process+thread: writers can still
        meet (a lease stolen past its TTL, a repairing fsck that got
        none), and a shared ``.tmp`` name would make one's rename eat the
        other's journal file; fsck collects any stray ``*.tmp``.
        """
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            fault_point("repo.write", path=str(path))
            with open(tmp, "w") as handle:
                # one dumps, one write: json.dump would issue a write
                # call per chunk (and, with indent, run the pure-Python
                # encoder)
                handle.write(payload if isinstance(payload, str)
                             else json.dumps(
                                 payload, indent=indent, sort_keys=True,
                                 separators=None if indent else (",", ":")))
                handle.flush()
                # the data must be durable *before* the rename is: a
                # rename journaled ahead of its contents would survive
                # a crash as an empty-but-renamed file
                fault_point("repo.fsync", path=str(path))
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            return True
        except OSError as error:
            self.io_errors += 1
            log.warning("repository write of %s failed: %s", path, error)
            try:
                tmp.unlink()
            except OSError:
                pass
            return False

    # -- meta handling ------------------------------------------------------

    def _load_meta(self) -> Dict:
        return self._open_meta()[0]

    def _open_meta(self) -> Tuple[Dict, bool]:
        """The index, and whether it had to be rebuilt — what a writer
        then writes back whatever else it changes."""
        try:
            fault_point("repo.read", path=str(self.meta_path))
            with open(self.meta_path) as handle:
                meta = json.load(handle)
            damaged = not isinstance(meta, dict) or \
                meta.get("format") != FORMAT_VERSION
        except (OSError, ValueError):
            # missing (fresh repo, or crash between object and meta
            # writes), unreadable, or torn: rebuild from ground truth
            damaged = True
        if damaged:
            # torn write / bit rot / version skew: the objects are the
            # ground truth, the index is reconstructable state
            meta = self._rebuild_meta()
        meta.setdefault("format", FORMAT_VERSION)
        meta.setdefault("clock", 0)
        meta.setdefault("objects", {})
        return meta, damaged

    def _rebuild_meta(self) -> Dict:
        """Reconstruct the object index by scanning the objects dir."""
        meta = {"format": FORMAT_VERSION, "clock": 0, "objects": {}}
        if not self.objects_dir.is_dir() or \
                not any(self.objects_dir.glob("*.json")):
            return meta    # fresh/empty repo: nothing to recover
        self.meta_recoveries += 1
        for path in sorted(self.objects_dir.glob("*.json")):
            record = self._read_object(path.stem)
            if record is None:
                continue        # corrupt object: left for fsck
            try:
                size = path.stat().st_size
            except OSError:
                continue
            meta["objects"][record["key"]] = {
                "last_used": 0, "size": size,
                "kind": record.get("kind"), "entry": record.get("entry")}
        log.warning("meta.json was missing or corrupt; rebuilt index "
                    "with %d object(s) from %s",
                    len(meta["objects"]), self.objects_dir)
        return meta

    def _write_meta(self, meta: Dict) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        # compact: machine-read (manifests, for people, keep indent=1)
        return self._write_json(self.meta_path, meta)

    @staticmethod
    def _stamp(meta: Dict, touched: Dict[str, Dict]) -> bool:
        """Make ``touched`` (key -> index entry) the most recently used;
        True when that changed the index.  :meth:`gc` evicts in
        ``(last_used, key)`` order, which a new tick leaves as it is
        exactly when the objects carrying the newest *are* ``touched``."""
        objects, clock = meta["objects"], meta["clock"]
        newest = {key: entry for key, entry in objects.items()
                  if entry["last_used"] == clock}
        if not touched or newest == {
                key: {**entry, "last_used": clock}
                for key, entry in touched.items()}:
            return False
        meta["clock"] = clock + 1
        objects.update((key, {**entry, "last_used": clock + 1})
                       for key, entry in touched.items())
        return True

    @staticmethod
    def _manifest_name(config_fp: str, image_fp: str) -> str:
        return f"{config_fp}__{image_fp}.json"

    def _manifest_path(self, config_fp: str, image_fp: str) -> Path:
        return self.manifests_dir / self._manifest_name(config_fp,
                                                        image_fp)

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    # -- save ---------------------------------------------------------------

    def save(self, records: List[Record], config_fp: str, image_fp: str,
             config_name: str = "",
             lease_timeout: float = DEFAULT_TIMEOUT,
             merge: bool = False) -> int:
        """Persist records under one (config, image) manifest.

        Returns the number of records written, each as its stored text.
        Existing objects with the same content key are reused (their LRU
        stamp is refreshed).
        By default the manifest is replaced wholesale so it exactly
        mirrors the saved snapshot; with ``merge=True`` the new keys
        are *unioned* with the manifest's existing entries and the
        result is sorted, so concurrent writers compose — any push
        order converges on the identical entry list (the cluster tier's
        replicas rely on this to reach byte-equal manifests).

        The whole sequence runs under the writer lease; if the lease
        stays contended past ``lease_timeout`` nothing is written and 0
        is returned (the VM keeps running, this snapshot is lost).
        """
        lease = self.writer_lease()
        if not lease.acquire(timeout=lease_timeout):
            self.lease_failures += 1
            log.warning("save skipped: writer lease at %s stayed "
                        "contended for %.1fs", lease.path, lease_timeout)
            return 0
        try:
            return self._save_locked(records, config_fp, image_fp,
                                     config_name, merge=merge)
        finally:
            lease.release()

    def _save_locked(self, records: List[Record], config_fp: str,
                     image_fp: str, config_name: str,
                     merge: bool = False) -> int:
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.manifests_dir.mkdir(parents=True, exist_ok=True)
        meta, dirty = self._open_meta()
        touched: Dict[str, Dict] = {}
        keys: List[str] = []
        saved = 0
        for record in records:
            if record is None:
                continue
            key = record["key"]
            path = self._object_path(key)
            try:
                exists = path.exists()
            except OSError:
                exists = False
            if not exists:
                if not self._write_json(path, record.text):
                    continue    # failed write: leave it out of the
                    #             manifest, the rest of the save stands
                saved += 1
            try:
                size = path.stat().st_size
            except OSError as error:
                self.io_errors += 1
                log.warning("cannot stat %s: %s", path, error)
                continue
            touched[key] = {"size": size, "kind": record["kind"],
                            "entry": record["entry"]}
            keys.append(key)
        dirty |= self._stamp(meta, touched)

        previous = self._read_manifest(config_fp, image_fp)
        if merge and previous is not None:
            existing = [key for key in previous.get("entries", ())
                        if isinstance(key, str)]
            keys = sorted(set(keys) | set(existing))
        # ``saved_clock`` is the tick of the last save that changed the
        # manifest: one that changes nothing does not write it
        if saved or previous is None or (
                previous.get("entries"), previous.get("config_name")
        ) != (keys, config_name):
            manifest = {
                "format": FORMAT_VERSION,
                "config_fingerprint": config_fp,
                "image_fingerprint": image_fp,
                "config_name": config_name,
                "saved_clock": meta["clock"],
                "entries": keys,
            }
            self._write_json(self._manifest_path(config_fp, image_fp),
                             manifest, indent=1)
        if dirty:
            self._write_meta(meta)
        return saved

    # -- load ---------------------------------------------------------------

    def load(self, config_fp: str, image_fp: str) -> List[Record]:
        """The parsed records for one (config, image) pair."""
        return self.fetch(config_fp, image_fp)[0]

    def fetch(self, config_fp: str, image_fp: str
              ) -> Tuple[List[Record], int]:
        """The parsed records for one (config, image) pair, and how many
        of the manifest's entries did not arrive as one.

        A store only stores: objects that do not parse or sit under
        another record's name are skipped (and counted); whether a
        record is intact is the loader's finding.  ``([], 0)`` when no
        manifest matches.
        """
        entries, texts = self.load_stored(config_fp, image_fp)
        records = [record for record in map(parse_object, entries, texts)
                   if record is not None]
        return records, len(entries) - len(records)

    def load_stored(self, config_fp: str, image_fp: str
                    ) -> Tuple[List, List[Optional[str]]]:
        """One manifest read: its entry list and, per entry, the object
        file's text as it lies on disk (None where unreadable)."""
        manifest = self._read_manifest(config_fp, image_fp)
        if manifest is None:
            return [], []
        entries = list(manifest.get("entries", ()))
        texts = [self._read_stored(key) for key in entries]
        self._touch([key for key, text in zip(entries, texts)
                     if text is not None])
        return entries, texts

    def _touch(self, keys: List[str], locked: bool = False) -> None:
        """The LRU stamp of a load.  Where it changes the index it
        rewrites all of ``meta.json``, so it is made again under the
        writer lease from a fresh read (a save completed meanwhile stays
        indexed); a busy lease skips it: that loses nothing but recency."""
        meta, dirty = self._open_meta()
        touched = {key: dict(meta["objects"][key]) for key in keys
                   if key in meta["objects"]}
        if not (self._stamp(meta, touched) or dirty):
            return
        if locked:
            self._write_meta(meta)
            return
        lease = self.writer_lease()
        if lease.try_acquire():
            try:
                self._touch(keys, locked=True)
            finally:
                lease.release()

    def _read_manifest(self, config_fp: str,
                       image_fp: str) -> Optional[Dict]:
        path = self._manifest_path(config_fp, image_fp)
        try:
            fault_point("repo.read", path=str(path))
            with open(path) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("format") != FORMAT_VERSION:
            return None
        if manifest.get("config_fingerprint") != config_fp or \
                manifest.get("image_fingerprint") != image_fp:
            return None  # tampered or misplaced manifest
        return manifest

    def _read_stored(self, key: str) -> Optional[str]:
        path = self._object_path(key)
        try:
            fault_point("repo.read", path=str(path))
            with open(path) as handle:
                return handle.read()
        except (OSError, ValueError):
            return None

    def _read_object(self, key: str) -> Optional[Record]:
        return parse_object(key, self._read_stored(key))

    # -- stats / gc ---------------------------------------------------------

    def stats(self) -> RepositoryStats:
        meta = self._load_meta()
        stats = RepositoryStats(root=str(self.root), clock=meta["clock"])
        stats.objects = len(meta["objects"])
        stats.total_bytes = sum(entry["size"]
                                for entry in meta["objects"].values())
        if self.manifests_dir.is_dir():
            for path in sorted(self.manifests_dir.glob("*.json")):
                try:
                    fault_point("repo.read", path=str(path))
                    with open(path) as handle:
                        manifest = json.load(handle)
                except (OSError, ValueError):
                    continue
                keys = manifest.get("entries", [])
                kinds = [meta["objects"].get(key, {}).get("kind")
                         for key in keys]
                stats.manifests.append({
                    "name": path.stem,
                    "config_name": manifest.get("config_name", ""),
                    "entries": len(keys),
                    "bbt": sum(1 for kind in kinds if kind == "bbt"),
                    "sbt": sum(1 for kind in kinds if kind == "sbt"),
                    "saved_clock": manifest.get("saved_clock", 0),
                })
        return stats

    def gc(self, budget_bytes: int,
           lease_timeout: float = DEFAULT_TIMEOUT) -> GCReport:
        """Evict least-recently-used objects until under the budget.

        Runs under the writer lease: a gc that raced a concurrent save
        could otherwise evict objects the mid-flight manifest still
        references.  When the lease stays contended past
        ``lease_timeout`` the report comes back with ``lease_busy`` set
        and nothing evicted.
        """
        lease = self.writer_lease()
        if not lease.acquire(timeout=lease_timeout):
            self.lease_failures += 1
            log.warning("gc skipped: writer lease at %s stayed "
                        "contended for %.1fs", lease.path, lease_timeout)
            return GCReport(budget_bytes=budget_bytes, lease_busy=True)
        try:
            return self._gc_locked(budget_bytes)
        finally:
            lease.release()

    def _gc_locked(self, budget_bytes: int) -> GCReport:
        meta, dirty = self._open_meta()
        report = GCReport(budget_bytes=budget_bytes)
        total = sum(entry["size"] for entry in meta["objects"].values())
        # oldest first; ties broken by key for determinism
        order = sorted(meta["objects"].items(),
                       key=lambda item: (item[1]["last_used"], item[0]))
        evicted = set()
        for key, entry in order:
            if total <= budget_bytes:
                break
            try:
                self._object_path(key).unlink()
            except OSError:
                pass
            total -= entry["size"]
            report.evicted_bytes += entry["size"]
            report.evicted_objects += 1
            evicted.add(key)
            del meta["objects"][key]
        if evicted:
            self._strip_manifest_refs(evicted)
        if evicted or dirty:
            self._write_meta(meta)
        report.remaining_objects = len(meta["objects"])
        report.remaining_bytes = total
        return report

    # -- fsck ---------------------------------------------------------------

    def fsck(self, repair: bool = False):
        """Check (and optionally repair) the on-disk store.

        See :func:`repro.persist.fsck.fsck_repository`; corrupt objects
        are quarantined under ``<root>/quarantine/``, the index and
        manifests are reconciled against the surviving objects.  A
        repairing pass takes the writer lease (best effort — a check
        pass, or a repair that cannot get the lease, proceeds lock-free
        exactly as before).
        """
        from repro.persist.fsck import fsck_repository
        lease = self.writer_lease() if repair else None
        locked = lease is not None and lease.acquire(timeout=2.0)
        try:
            return fsck_repository(self, repair=repair)
        finally:
            if locked:
                lease.release()

    def _strip_manifest_refs(self, evicted) -> None:
        if not self.manifests_dir.is_dir():
            return
        for path in self.manifests_dir.glob("*.json"):
            try:
                fault_point("repo.read", path=str(path))
                with open(path) as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError):
                continue
            entries = manifest.get("entries", [])
            kept = [key for key in entries if key not in evicted]
            if len(kept) == len(entries):
                continue
            if kept:
                manifest["entries"] = kept
                self._write_json(path, manifest, indent=1)
            else:
                try:
                    path.unlink()
                except OSError:
                    pass
