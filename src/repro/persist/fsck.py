"""``repro cache fsck`` — repository consistency check and repair.

The repository is designed so that readers survive arbitrary damage
(corrupt files read as absent, a lost index is rebuilt), but damage
left in place costs every boot: corrupt objects are re-read and
re-rejected, manifests reference records that no longer load, stray
journal files accumulate.  fsck walks the whole store once and settles
it:

=====================  ===========================================
finding                repair
=====================  ===========================================
stray ``*.tmp`` file   deleted (incomplete journaled write)
corrupt/invalid meta   rebuilt from the objects directory
corrupt object         moved to ``<root>/quarantine/`` (kept for
                       post-mortem, never loaded again)
object not in index    indexed (crash between object and meta write)
index entry w/o file   dropped from the index
corrupt manifest       deleted (that (config, image) pair boots cold)
manifest ref to a      reference stripped (the rest of the manifest
missing/bad object     still warm-starts)
=====================  ===========================================

``fsck(repair=False)`` only reports; ``repair=True`` applies the right
column.  After a repairing pass a second fsck is clean — the ``fsck``
drill (``tools/drills.py``) asserts exactly that for every disk fault
class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.persist.format import (
    FORMAT_VERSION,
    PersistFormatError,
    parse_record,
    validate_record,
)


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


def _meta_is_valid(repo) -> bool:
    try:
        # reprolint: disable=FLT001 - fsck IS the repair path and runs
        # with injection disarmed; faulting it would break self-healing
        with open(repo.meta_path) as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        # acceptable only when there is nothing to index
        return not any(repo.objects_dir.glob("*.json")) \
            if repo.objects_dir.is_dir() else True
    except (OSError, ValueError):
        return False
    return (isinstance(meta, dict)
            and meta.get("format") == FORMAT_VERSION
            and isinstance(meta.get("objects"), dict)
            and isinstance(meta.get("clock"), int))


def fsck_repository(repo, repair: bool = False) -> FsckReport:
    """Walk one repository; report damage and optionally repair it."""
    report = FsckReport(root=str(repo.root), repaired=repair)
    if not repo.root.is_dir():
        report.details.append("repository directory does not exist "
                              "(nothing to check)")
        return report

    # 1. stray journal files from interrupted writes
    for directory in (repo.root, repo.objects_dir, repo.manifests_dir):
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

    # 2. objects: every file must parse, validate, and match its name
    good_objects: Dict[str, Dict] = {}
    if repo.objects_dir.is_dir():
        for path in sorted(repo.objects_dir.glob("*.json")):
            report.objects_checked += 1
            problem = None
            try:
                record = parse_record(path.read_text())
                validate_record(record)
                if record["key"] != path.stem:
                    problem = "stored under the wrong key"
            except (OSError, ValueError) as error:
                problem = f"unreadable: {error}"
            except PersistFormatError as error:
                problem = f"invalid: {error}"
            if problem is None:
                good_objects[path.stem] = record
                continue
            report.corrupt_objects += 1
            report.details.append(f"object {path.name}: {problem}")
            if repair:
                repo.quarantine_dir.mkdir(parents=True, exist_ok=True)
                try:
                    path.rename(repo.quarantine_dir / path.name)
                    report.quarantined_objects += 1
                except OSError:
                    pass

    # 3. index <-> objects reconciliation
    meta_valid = _meta_is_valid(repo)
    if not meta_valid:
        report.meta_corrupt = True
        report.details.append("meta.json missing, torn, or invalid")
    meta = repo._load_meta()    # rebuilds from objects when damaged
    indexed = set(meta.get("objects", {}))
    for key in sorted(indexed - set(good_objects)):
        report.dangling_index_entries += 1
        report.details.append(f"index entry {key[:16]}... has no "
                              f"(valid) object file")
        if repair:
            del meta["objects"][key]
    for key in sorted(set(good_objects) - indexed):
        report.unindexed_objects += 1
        report.details.append(f"object {key[:16]}... missing from index")
        if repair:
            path = repo._object_path(key)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            meta["objects"][key] = {
                "last_used": 0, "size": size,
                "kind": good_objects[key]["kind"],
                "entry": good_objects[key]["entry"]}

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
                if (not isinstance(manifest, dict)
                        or manifest.get("format") != FORMAT_VERSION
                        or not isinstance(manifest.get("entries"), list)):
                    problem = "invalid structure or format version"
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
            kept = [key for key in entries if key in good_objects]
            dangling = len(entries) - len(kept)
            if dangling:
                report.dangling_manifest_refs += dangling
                report.details.append(
                    f"manifest {path.name}: {dangling} reference(s) "
                    f"to missing/corrupt objects")
                if repair:
                    if kept:
                        manifest["entries"] = kept
                        repo._write_json(path, manifest, indent=1)
                    else:
                        try:
                            path.unlink()
                        except OSError:
                            pass

    if repair:
        repo._write_meta(meta)
    return report
