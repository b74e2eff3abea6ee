"""The on-disk translation repository.

Layout v4 (JSON documents and pack files, no external dependencies)::

    <root>/
        meta.json                  # format version, LRU clock, object index
        packs/<digest>.pack        # one save's new records, one a line
        manifests/<cfg>__<img>.json  # entry list per (config, image) pair

Records are content-addressed (see :mod:`repro.persist.format`): a key
is the SHA-256 of the record's stored text, so the same translation
saved under two configurations that emit identical code is stored once.
A save writes the records the index does not hold yet as one **pack**:
their stored texts, one a line, in a file named by a digest of its
bytes and never rewritten in place.  The index in ``meta.json`` maps
each key to its pack, byte offset and size, so a load reads each pack
it needs once and ships every record's text as it was saved.
Manifests bind a (config fingerprint, image fingerprint) pair to the
set of keys that warm-starts it; a config or program change selects a
different manifest and never sees stale records.

Eviction is LRU over a logical clock: a save or load makes the records
it touches the most recently used, ticking the clock and rewriting
``meta.json`` only where that changes the order (docs/persistence.md,
"Eviction").  :meth:`gc` drops the least-recently-used records until the
store fits a byte budget; a pack that loses a record is replaced by a
new pack of its survivors, so the packs hold exactly the indexed
records.  Then it strips dangling references from every manifest.

Crash safety
------------
Every file the repository writes — pack, manifest, meta, in that order
— goes through a journaled two-step (write ``<name>.<id>.tmp``, fsync,
then atomic ``os.replace``), so a crash mid-write leaves either the old
content or a stray ``.tmp`` file, never a torn file; the fsync before
the rename means a power cut cannot journal an *empty-but-renamed* file
either (rename metadata reaching disk before the data would otherwise
do exactly that).  Reads treat any unreadable or invalid file as
absent.  The index is reconstructable state: a ``meta.json`` that is
missing, corrupt, of another format, or that names other packs than
``packs/`` holds (a crash after a pack landed and before the index did,
or after gc unlinked a pack) is *rebuilt* from the packs instead of
wiping the store.  I/O errors during save/load are absorbed
(``io_errors`` counts them): a failed pack write just leaves its
records out of the manifest, a failed LRU stamp loses nothing but
recency.  :meth:`fsck` detects, quarantines and repairs whatever
damage accumulates anyway (see ``docs/robustness.md``).

Concurrency
-----------
Writers (``save``, ``gc``, repairing ``fsck``) serialize on the
file-based :class:`~repro.persist.lease.WriterLease`, so concurrent
savers from many processes — or the cache server's handler threads —
never interleave the pack -> manifest -> meta sequence, and a gc pass
can never evict records a mid-flight save's manifest is about to
reference.  A load reads lease-free; its LRU stamp, where one must be
written, rewrites the index, so it is made under the lease (one try,
from a fresh read) or not at all.  A writer that cannot get the lease
degrades (saves/evicts nothing, counts ``lease_failures``) instead of
blocking the VM.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.faults.plane import fault_point
from repro.persist.format import FORMAT_VERSION, Record, parse_record
from repro.persist.lease import WriterLease

log = logging.getLogger("repro.persist")


def pack_lines(data: bytes):
    """``(offset, bytes)`` of each non-empty line of a pack."""
    offset = 0
    for line in data.split(b"\n"):
        if line:
            yield offset, line
        offset += len(line) + 1


def decoded(data: Optional[bytes]) -> Optional[str]:
    """Stored bytes as a text, or None when they are not UTF-8."""
    try:
        return None if data is None else data.decode()
    except UnicodeDecodeError:
        return None


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
        self.packs_dir = self.root / "packs"
        self.manifests_dir = self.root / "manifests"
        self.quarantine_dir = self.root / "quarantine"
        self.meta_path = self.root / "meta.json"
        #: I/O failures absorbed instead of propagated (this process)
        self.io_errors = 0
        #: times meta.json had to be rebuilt from the packs
        self.meta_recoveries = 0
        #: writer-lease acquisitions that timed out (save/gc degraded)
        self.lease_failures = 0

    def writer_lease(self) -> WriterLease:
        """A fresh lease handle on this repository's lock file."""
        return WriterLease(self.root)

    # -- journaled I/O ------------------------------------------------------

    def _write(self, path: Path, payload,
               indent: Optional[int] = None) -> bool:
        """Journaled write: tmp file + atomic rename.  ``payload`` is a
        document, written as JSON, or ``bytes`` written verbatim (a
        pack).

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
            with open(tmp, "wb") as handle:
                # one dumps, one write: json.dump would issue a write
                # call per chunk (and, with indent, run the pure-Python
                # encoder)
                handle.write(payload if isinstance(payload, bytes)
                             else json.dumps(
                                 payload, indent=indent, sort_keys=True,
                                 separators=None if indent else (",", ":")
                             ).encode())
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

    # -- packs --------------------------------------------------------------

    def pack_names(self) -> List[str]:
        """The pack files on disk, by name."""
        try:
            return sorted(name for name in os.listdir(self.packs_dir)
                          if name.endswith(".pack"))
        except OSError:
            return []

    def read_pack(self, name: str) -> Optional[bytes]:
        """A pack's bytes, or None when it cannot be read."""
        path = self.packs_dir / name
        try:
            fault_point("repo.read", path=str(path))
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _write_pack(self, texts: List[bytes]
                    ) -> Optional[Tuple[str, List[int]]]:
        """One journaled pack of ``texts``, one a line: its name (a
        digest of its bytes) and each text's offset, or None when the
        write failed."""
        data = b"".join(text + b"\n" for text in texts)
        name = hashlib.sha256(data).hexdigest()[:16] + ".pack"
        self.packs_dir.mkdir(parents=True, exist_ok=True)
        if not self._write(self.packs_dir / name, data):
            return None
        return name, list(accumulate(
            (len(text) + 1 for text in texts[:-1]), initial=0))

    def _stored(self, objects: Dict, keys: List) -> List[Optional[bytes]]:
        """Each key's stored bytes as the index locates them, reading
        each pack once; None where the index has no entry, the pack
        cannot be read or it ends before the record does."""
        located = [objects.get(key) if isinstance(key, str) else None
                   for key in keys]
        packs: Dict[str, Optional[bytes]] = {}
        stored: List[Optional[bytes]] = []
        for entry in located:
            if entry is None:
                stored.append(None)
                continue
            if entry["pack"] not in packs:
                packs[entry["pack"]] = self.read_pack(entry["pack"])
            data = packs[entry["pack"]]
            end = entry["offset"] + entry["size"]
            stored.append(None if data is None or end > len(data)
                          else data[entry["offset"]:end])
        return stored

    def _repack(self, meta: Dict, names) -> set:
        """Replace each pack of ``names`` by a new pack of the indexed
        records it holds (none: the pack just goes), then unlink it, so
        the packs hold exactly the indexed records and an index rebuilt
        from them resurrects nothing.  A record whose bytes cannot be
        carried over leaves the index too; returns those keys."""
        objects, lost = meta["objects"], set()
        for name in sorted(names):
            keys = [key for _, key in sorted(
                (entry["offset"], key) for key, entry in objects.items()
                if entry["pack"] == name)]
            kept = {key: data for key, data
                    in zip(keys, self._stored(objects, keys)) if data}
            written = self._write_pack(list(kept.values())) \
                if kept else None
            moved = dict(zip(kept, written[1])) if written else {}
            for key in keys:
                entry = objects.pop(key)
                if key in moved:
                    objects[key] = {**entry, "pack": written[0],
                                    "offset": moved[key]}
                else:
                    lost.add(key)
            if written is None or written[0] != name:
                try:
                    (self.packs_dir / name).unlink()
                except OSError:
                    pass
        return lost

    # -- meta handling ------------------------------------------------------

    def _load_meta(self) -> Dict:
        return self._open_meta()[0]

    def _open_meta(self) -> Tuple[Dict, bool]:
        """The index, and whether it had to be rebuilt — what a writer
        then writes back whatever else it changes.  An index that names
        other packs than the store holds (a crash between a pack and the
        index, or after gc unlinked one) is rebuilt like a torn one: the
        packs are the ground truth, the index is reconstructable state."""
        names = self.pack_names()
        try:
            fault_point("repo.read", path=str(self.meta_path))
            with open(self.meta_path) as handle:
                meta = json.load(handle)
            if meta.get("format") == FORMAT_VERSION and sorted(
                    {entry["pack"] for entry in meta["objects"].values()}
            ) == names and isinstance(meta.get("clock"), int):
                return meta, False
        except FileNotFoundError:
            if not names:       # a fresh store: nothing to recover
                return {"format": FORMAT_VERSION, "clock": 0,
                        "objects": {}}, False
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError):
            pass                # unreadable, torn, or not an index
        return self._rebuild_meta(names), True

    def _rebuild_meta(self, names: List[str]) -> Dict:
        """Reconstruct the object index by scanning the packs."""
        meta: Dict = {"format": FORMAT_VERSION, "clock": 0, "objects": {}}
        self.meta_recoveries += 1
        for name in names:
            for offset, text in pack_lines(self.read_pack(name) or b""):
                record = parse_record(decoded(text))
                if record is None or not isinstance(record.get("key"),
                                                    str):
                    continue        # corrupt record: left for fsck
                meta["objects"].setdefault(record["key"], {
                    "last_used": 0, "size": len(text),
                    "kind": record.get("kind"),
                    "entry": record.get("entry"),
                    "pack": name, "offset": offset})
        log.warning("meta.json was missing, corrupt or stale; rebuilt "
                    "index with %d object(s) from %s",
                    len(meta["objects"]), self.packs_dir)
        return meta

    def _write_meta(self, meta: Dict) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        # compact: machine-read (manifests, for people, keep indent=1)
        return self._write(self.meta_path, meta)

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

    def legacy_files(self) -> List[Path]:
        """Record files an older layout left under the root: formats 1
        to 3 stored each record as ``objects/<key>.json``."""
        return sorted((self.root / "objects").glob("*.json"))

    # -- save ---------------------------------------------------------------

    def save(self, records: List[Record], config_fp: str, image_fp: str,
             config_name: str = "",
             lease_timeout: Optional[float] = None,
             merge: bool = False, repair: bool = False) -> int:
        """Persist records under one (config, image) manifest.

        Returns the number of records written, each as its stored text:
        the records the index does not hold yet, as one pack.  Records
        it holds are reused (their LRU stamp is refreshed); with
        ``repair=True`` one whose stored copy is not the text given is
        evicted and written again (anti-entropy's heal).
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
                        "contended", lease.path)
            return 0
        try:
            return self._save_locked(
                [record for record in records if record is not None],
                config_fp, image_fp, config_name, merge, repair)
        finally:
            lease.release()

    def _save_locked(self, records: List[Record], config_fp: str,
                     image_fp: str, config_name: str, merge: bool,
                     repair: bool) -> int:
        self.manifests_dir.mkdir(parents=True, exist_ok=True)
        meta, dirty = self._open_meta()
        objects = meta["objects"]
        if repair:
            keys = [record["key"] for record in records]
            damaged = {key: objects[key]["pack"] for key, stored, record
                       in zip(keys, self._stored(objects, keys), records)
                       if key in objects
                       and stored != record.text.encode()}
            for key in damaged:
                del objects[key]
            self._repack(meta, set(damaged.values()))
            dirty |= bool(damaged)
        new: Dict[str, bytes] = {}
        for record in records:
            # a line holds one text: one with a raw newline is no record
            # a pack can hold
            if record["key"] not in objects and "\n" not in record.text:
                new.setdefault(record["key"], record.text.encode())
        written = self._write_pack(list(new.values())) if new else None
        # a failed write leaves them out of the manifest, the rest of
        # the save stands
        placed = dict(zip(new, written[1])) if written else {}
        touched: Dict[str, Dict] = {}
        keys: List[str] = []
        for record in records:
            key = record["key"]
            if key in objects:
                touched.setdefault(key, dict(objects[key]))
            elif key in placed:
                touched.setdefault(key, {
                    "size": len(new[key]), "kind": record["kind"],
                    "entry": record["entry"], "pack": written[0],
                    "offset": placed[key]})
            else:
                continue
            keys.append(key)
        dirty |= self._stamp(meta, touched)

        previous = self._read_manifest(config_fp, image_fp)
        if merge:
            # a merged manifest is the sorted union, whatever order the
            # pushes came in -- the first into an empty store included
            existing = [key for key in (previous or {}).get("entries", ())
                        if isinstance(key, str)]
            keys = sorted(set(keys) | set(existing))
        # ``saved_clock`` is the tick of the last save that changed the
        # manifest: one that changes nothing does not write it
        if placed or previous is None or (
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
            self._write(self._manifest_path(config_fp, image_fp),
                        manifest, indent=1)
        if dirty:
            self._write_meta(meta)
        return len(placed)

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
        """One manifest read and one index read: the manifest's entry
        list and, per entry, the record's stored text as it lies in its
        pack (None where there is none), each pack read once."""
        manifest = self._read_manifest(config_fp, image_fp)
        if manifest is None:
            return [], []
        entries = list(manifest.get("entries", ()))
        meta, dirty = self._open_meta()
        objects = meta["objects"]
        texts = [decoded(data) for data in self._stored(objects, entries)]
        found = [key for key, text in zip(entries, texts)
                 if text is not None]
        if self._stamp(meta, {key: dict(objects[key]) for key in found}) \
                or dirty:
            lease = self.writer_lease()
            if lease.try_acquire():
                try:
                    self._touch(found)
                finally:
                    lease.release()
        return entries, texts

    def _touch(self, keys: List[str]) -> None:
        """The LRU stamp of a load, where it changes the index.  It
        rewrites all of ``meta.json``, so it is made under the writer
        lease from a fresh read (a save completed meanwhile stays
        indexed); a load whose lease is busy skips it: that loses
        nothing but recency."""
        meta, dirty = self._open_meta()
        touched = {key: dict(meta["objects"][key]) for key in keys
                   if key in meta["objects"]}
        if self._stamp(meta, touched) or dirty:
            self._write_meta(meta)

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
           lease_timeout: Optional[float] = None) -> GCReport:
        """Evict least-recently-used records until under the budget.

        Runs under the writer lease: a gc that raced a concurrent save
        could otherwise evict records the mid-flight manifest still
        references.  When the lease stays contended past
        ``lease_timeout`` the report comes back with ``lease_busy`` set
        and nothing evicted.
        """
        lease = self.writer_lease()
        if not lease.acquire(timeout=lease_timeout):
            self.lease_failures += 1
            log.warning("gc skipped: writer lease at %s stayed "
                        "contended", lease.path)
            return GCReport(budget_bytes=budget_bytes, lease_busy=True)
        try:
            return self._gc_locked(budget_bytes)
        finally:
            lease.release()

    def _gc_locked(self, budget_bytes: int) -> GCReport:
        meta, dirty = self._open_meta()
        objects = meta["objects"]
        report = GCReport(budget_bytes=budget_bytes)
        total = sum(entry["size"] for entry in objects.values())
        # oldest first; ties broken by key for determinism
        order = sorted(objects.items(),
                       key=lambda item: (item[1]["last_used"], item[0]))
        evicted, packs = set(), set()
        for key, entry in order:
            if total <= budget_bytes:
                break
            total -= entry["size"]
            report.evicted_bytes += entry["size"]
            report.evicted_objects += 1
            evicted.add(key)
            packs.add(entry["pack"])
            del objects[key]
        if evicted:
            # the new packs land and the old ones go before the index
            # does: a crash in between rebuilds an index of survivors
            self._strip_manifest_refs(evicted | self._repack(meta, packs))
        if evicted or dirty:
            self._write_meta(meta)
        report.remaining_objects = len(objects)
        report.remaining_bytes = sum(entry["size"]
                                     for entry in objects.values())
        return report

    # -- fsck ---------------------------------------------------------------

    def fsck(self, repair: bool = False):
        """Check (and optionally repair) the on-disk store.

        See :func:`repro.persist.fsck.fsck_repository`; corrupt records
        are quarantined under ``<root>/quarantine/``, the index, packs
        and manifests are reconciled against the surviving records.  A
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
                self._write(path, manifest, indent=1)
            else:
                try:
                    path.unlink()
                except OSError:
                    pass
