"""``repro cache fsck`` — repository consistency check and repair.

The repository is designed so that readers survive arbitrary damage
(corrupt records read as absent, a lost index is rebuilt from the
packs), but damage left in place costs every boot: corrupt records are
re-read and re-rejected, manifests reference records that no longer
load, stray journal files accumulate.  fsck walks the whole store once
and settles it:

=====================  ===========================================
finding                repair
=====================  ===========================================
stray ``*.tmp`` file   deleted (incomplete journaled write)
corrupt/invalid meta,  rebuilt from the packs
or one naming other
packs (a crash between
a pack and the index)
corrupt record in a    its bytes copied to ``<root>/quarantine/``
pack                   (kept for post-mortem, never loaded again),
                       its pack rewritten without it
record file of an      moved to ``<root>/quarantine/`` (a store of
older layout           format 1-3 held one record per file)
record not in index    indexed (a second copy of an indexed key:
                       dropped with its pack's rewrite)
index entry that       dropped from the index
locates no valid
record
corrupt manifest       deleted (that (config, image) pair boots cold)
manifest ref to a      reference stripped (the rest of the manifest
missing/bad record     still warm-starts)
=====================  ===========================================

After a repairing pass every pack holds exactly the indexed records.
``fsck(repair=False)`` only reports; ``repair=True`` applies the right
column.  After a repairing pass a second fsck is clean — the ``fsck``
drill (``tools/drills.py``) asserts exactly that for every disk fault
class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.persist.format import (
    FORMAT_VERSION,
    PersistFormatError,
    parse_record,
    validate_record,
)
from repro.persist.repository import decoded, pack_lines


@dataclass
class FsckReport:
    """Findings (and repairs) of one fsck pass."""

    root: str
    repaired: bool = False
    objects_checked: int = 0
    manifests_checked: int = 0
    #: findings
    stray_tmp_files: int = 0
    meta_corrupt: bool = False
    corrupt_objects: int = 0
    unindexed_objects: int = 0
    dangling_index_entries: int = 0
    corrupt_manifests: int = 0
    dangling_manifest_refs: int = 0
    #: repairs applied (repair=True only)
    quarantined_objects: int = 0
    details: List[str] = field(default_factory=list)

    @property
    def issues(self) -> int:
        return (self.stray_tmp_files + int(self.meta_corrupt)
                + self.corrupt_objects + self.unindexed_objects
                + self.dangling_index_entries + self.corrupt_manifests
                + self.dangling_manifest_refs)

    @property
    def ok(self) -> bool:
        return self.issues == 0

    def format(self) -> str:
        mode = "repair" if self.repaired else "check"
        lines = [f"fsck ({mode}): {self.root}",
                 f"objects checked:    {self.objects_checked} "
                 f"({self.corrupt_objects} corrupt, "
                 f"{self.unindexed_objects} unindexed)",
                 f"manifests checked:  {self.manifests_checked} "
                 f"({self.corrupt_manifests} corrupt, "
                 f"{self.dangling_manifest_refs} dangling refs)",
                 f"index:              "
                 f"{'corrupt/rebuilt' if self.meta_corrupt else 'ok'} "
                 f"({self.dangling_index_entries} dangling entries)",
                 f"journal leftovers:  {self.stray_tmp_files}"]
        if self.repaired and self.quarantined_objects:
            lines.append(f"quarantined:        "
                         f"{self.quarantined_objects} object(s) -> "
                         f"{self.root}/quarantine")
        lines.extend(f"  - {detail}" for detail in self.details)
        lines.append("status:             "
                     + ("clean" if self.ok
                        else f"{self.issues} issue(s)"
                             + (" repaired" if self.repaired
                                else " found")))
        return "\n".join(lines)


def _quarantine(repo, report: FsckReport, name: str, data: bytes) -> None:
    """Keep a bad record's bytes for post-mortem, never loaded again."""
    repo.quarantine_dir.mkdir(parents=True, exist_ok=True)
    (repo.quarantine_dir / name).write_bytes(data)
    report.quarantined_objects += 1


def fsck_repository(repo, repair: bool = False) -> FsckReport:
    """Walk one repository; report damage and optionally repair it."""
    report = FsckReport(root=str(repo.root), repaired=repair)
    if not repo.root.is_dir():
        report.details.append("repository directory does not exist "
                              "(nothing to check)")
        return report

    # 1. stray journal files from interrupted writes
    for directory in (repo.root, repo.packs_dir, repo.manifests_dir):
        if not directory.is_dir():
            continue
        for tmp in sorted(directory.glob("*.tmp")):
            report.stray_tmp_files += 1
            report.details.append(f"stray journal file {tmp.name}")
            if repair:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    # 2. records: every line of every pack must parse and validate; a
    # file of an older layout is a record this store cannot use
    for path in repo.legacy_files():
        report.objects_checked += 1
        report.corrupt_objects += 1
        report.details.append(f"object {path.parent.name}/{path.name}: "
                              f"a record file of an older layout")
        if repair:
            _quarantine(repo, report, path.name, path.read_bytes())
            path.unlink()
    #: (pack, offset, size) -> the valid record stored there
    good: Dict[Tuple[str, int, int], Dict] = {}
    damaged_packs = set()
    for name in repo.pack_names():
        data = repo.read_pack(name)
        if data is None:
            damaged_packs.add(name)
            report.details.append(f"pack {name}: unreadable")
        for offset, raw in pack_lines(data or b""):
            report.objects_checked += 1
            record = parse_record(decoded(raw))
            try:
                validate_record(record)
            except PersistFormatError as error:
                report.corrupt_objects += 1
                report.details.append(
                    f"object at {name}:{offset}: invalid: {error}")
                damaged_packs.add(name)
                if repair:
                    _quarantine(repo, report, f"{name}.{offset}", raw)
                continue
            good[(name, offset, len(raw))] = record

    # 3. index <-> records reconciliation
    meta, report.meta_corrupt = repo._open_meta()
    if report.meta_corrupt:
        report.details.append("meta.json missing, torn, invalid or "
                              "naming other packs: rebuilt from them")
    objects = meta["objects"]
    #: key -> where the valid copy the index keeps lies
    where = {}
    for key, entry in sorted(objects.items()):
        spot = (entry["pack"], entry["offset"], entry["size"])
        if spot in good and good[spot]["key"] == key:
            where[key] = spot
            continue
        report.dangling_index_entries += 1
        report.details.append(f"index entry {key[:16]}... locates no "
                              f"valid record")
        if repair:
            del objects[key]
    for spot, record in sorted(good.items()):
        key = record["key"]
        if where.get(key) == spot:
            continue
        report.unindexed_objects += 1
        report.details.append(f"object {key[:16]}... at {spot[0]}:"
                              f"{spot[1]} missing from index")
        if key in where:
            # a second copy goes with its pack's rewrite
            damaged_packs.add(spot[0])
        elif repair:
            where[key] = spot
            objects[key] = {"last_used": 0, "size": spot[2],
                            "kind": record["kind"],
                            "entry": record["entry"],
                            "pack": spot[0], "offset": spot[1]}
    valid = {record["key"] for record in good.values()}
    if repair:
        valid -= repo._repack(meta, damaged_packs)

    # 4. manifests: structure, fingerprints-vs-filename, references
    if repo.manifests_dir.is_dir():
        for path in sorted(repo.manifests_dir.glob("*.json")):
            report.manifests_checked += 1
            problem = None
            manifest = None
            try:
                manifest = json.loads(path.read_text())
            except (OSError, ValueError) as error:
                problem = f"unreadable: {error}"
            if problem is None:
                if not isinstance(manifest, dict) or \
                        not isinstance(manifest.get("entries"), list):
                    problem = "invalid structure"
                elif manifest.get("format") != FORMAT_VERSION:
                    problem = (f"format version {manifest.get('format')!r} "
                               f"!= {FORMAT_VERSION}")
                else:
                    expected = repo._manifest_name(
                        manifest.get("config_fingerprint", ""),
                        manifest.get("image_fingerprint", ""))
                    if expected != path.name:
                        problem = "fingerprints do not match filename"
            if problem is not None:
                report.corrupt_manifests += 1
                report.details.append(f"manifest {path.name}: {problem}")
                if repair:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            entries = manifest["entries"]
            kept = [key for key in entries if key in valid]
            dangling = len(entries) - len(kept)
            if dangling:
                report.dangling_manifest_refs += dangling
                report.details.append(
                    f"manifest {path.name}: {dangling} reference(s) "
                    f"to missing/corrupt records")
                if repair:
                    if kept:
                        manifest["entries"] = kept
                        repo._write(path, manifest, indent=1)
                    else:
                        try:
                            path.unlink()
                        except OSError:
                            pass

    if repair:
        repo._write_meta(meta)
    return report
