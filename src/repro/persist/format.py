"""Serialization format for persisted translations.

A persisted translation is a *record*: a JSON-friendly dict holding the
canonical (un-chained, un-redirected) micro-op stream of one BBT or SBT
translation **as its encoded bytes** (``code``, hex) plus everything
needed to re-materialize it in a fresh VM — the ``x86_addr`` metadata
the bytes do not carry (``origins``, run-length ``[x86_addr, count]``
pairs in stream order), exit-stub offsets, side-table offsets,
profiling-counter linkage, and a **source fingerprint**.  The micro-op
decoder is the only parser of a record's code: there is no field-list
form, and a record of an older layout reads as corrupt.

Content addressing
------------------
Every record is keyed by a hash over its entire payload: the x86 bytes
it was translated from (per covered instruction), its kind and entry
address, and the emitted micro-op stream with its exit/side-table
anchors.  Validation recomputes the key, so any on-disk tampering is
caught as corruption; separately, the loader re-reads the recorded
source bytes from the *current* program memory, so a record whose
source changed since it was saved is dropped as stale, never installed.

Configuration fingerprints
--------------------------
Emitted code shape depends on translator configuration (hot threshold
via the profiling prologue, fusion, superblock formation parameters...).
:func:`config_fingerprint` hashes exactly the fields that influence
emitted streams; the repository keeps one manifest per
(config fingerprint, image fingerprint) pair, so a config or program
change invalidates the whole manifest rather than silently mixing
incompatible translations.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.isa.fusible.encoding import UopEncodeError
from repro.isa.x86lite.decoder import DecodeError
from repro.isa.x86lite.instruction import MAX_INSTRUCTION_LENGTH
from repro.memory.address_space import MemoryError_
from repro.translator.code_cache import (
    ExitStub,
    Translation,
    expand_origins,
)
from repro.translator.templates import fetch, shape_at

#: Bump on any incompatible change to the record layout.
FORMAT_VERSION = 2

#: Exit-stub kinds a record may carry (mirrors ExitStub.kind).  A tuple:
#: membership compares, so an unhashable JSON value is just "not in".
_EXIT_KINDS = ("jump", "fallthrough", "taken", "indirect", "vmcall", "loop")


#: the one JSON spelling content keys are computed over
_canonical_json = json.JSONEncoder(sort_keys=True).encode


class PersistFormatError(Exception):
    """A record is structurally invalid (corrupt or wrong version)."""


# -- fingerprints ----------------------------------------------------------

def config_fingerprint(config) -> str:
    """Hash the MachineConfig fields that shape emitted translations."""
    relevant = (
        FORMAT_VERSION,
        config.mode,
        config.initial_emulation,
        config.hot_threshold,
        config.hotspot_detector,
        config.superblock_bias,
        config.max_superblock_instrs,
        config.enable_fusion,
    )
    return hashlib.sha256(repr(relevant).encode()).hexdigest()[:16]


def image_fingerprint(image) -> str:
    """Hash a program image (entry point plus every segment)."""
    digest = hashlib.sha256(f"entry:{image.entry:#x}".encode())
    for segment in sorted(image.segments, key=lambda s: s.addr):
        digest.update(f"|{segment.name}@{segment.addr:#x}:".encode())
        digest.update(segment.data)
    return digest.hexdigest()[:16]


def record_key(record: Dict) -> str:
    """Content hash over the record's entire payload (minus the key).

    Covering the full payload — micro-ops, exits, side table, not just
    the source bytes — means any on-disk tampering or truncation shows
    up as a key mismatch during validation, before the verifier ever
    sees the record.
    """
    payload = dict(record)
    payload.pop("key", None)
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


# -- translation -> record --------------------------------------------------

def _covered_source(origins: List[List], memory) -> List[List]:
    """``[addr, hexbytes]`` for every x86 instruction the stream covers.

    Coverage comes from the per-micro-op ``x86_addr`` metadata (the
    ``origins`` runs), so the fingerprint spans exactly the instructions
    whose semantics the translation encodes (including superblock
    constituents).  Each instruction's length is its shape's, read from
    windows fetched as the translators fetch them: nothing is decoded.
    """
    addrs = sorted({addr for addr, _count in origins
                    if addr is not None})
    source: List[List] = []
    window, base = b"", 0
    for addr in addrs:
        offset = addr - base
        if offset + MAX_INSTRUCTION_LENGTH > len(window):
            window, base, offset = fetch(memory, addr), addr, 0
        length = shape_at(window, offset, addr).length
        source.append([addr, window[offset:offset + length].hex()])
    return source


def serialize_translation(translation: Translation,
                          memory) -> Optional[Dict]:
    """One translation -> JSON-ready record, or None if unserializable.

    Serializes the *canonical* stream (``translation.code``, the bytes
    as installed), which chain patches and BBT->SBT redirects never
    touch — persisted translations are therefore always in their
    un-chained form and re-link naturally after loading.
    """
    code, origins = translation.code, translation.origins
    if not code or origins is None:
        return None
    try:
        source = _covered_source(origins, memory)
    except (DecodeError, MemoryError_, UopEncodeError):
        return None  # source no longer decodes (e.g. overwritten text)
    record = {
        "format": FORMAT_VERSION,
        "kind": translation.kind,
        "entry": translation.entry,
        "x86_addrs": list(translation.x86_addrs),
        "instr_count": translation.instr_count,
        "fused_pairs": translation.fused_pairs,
        "counter_addr": translation.counter_addr,
        "code": code.hex(),
        "origins": [list(run) for run in origins],
        "exits": [[stub.stub_addr - translation.native_addr, stub.kind,
                   stub.x86_target] for stub in translation.exits],
        "side_table": [[addr - translation.native_addr, x86_addr]
                       for addr, x86_addr
                       in sorted(translation.side_table.items())],
        "source": source,
    }
    record["key"] = record_key(record)
    return record


# -- record -> translation --------------------------------------------------

def validate_record(record: Dict) -> None:
    """Structural validation; raises PersistFormatError on corruption."""
    if not isinstance(record, dict):
        raise PersistFormatError("record is not an object")
    if record.get("format") != FORMAT_VERSION:
        raise PersistFormatError(
            f"format version {record.get('format')!r} != {FORMAT_VERSION}")
    if record.get("kind") not in ("bbt", "sbt"):
        raise PersistFormatError(f"bad kind {record.get('kind')!r}")
    # a number is ``type(...) is int``: JSON ``true``/``false`` (``bool`` is
    # an ``int`` subclass) would otherwise pass for a count of 1 or 0
    for field in ("entry", "instr_count", "fused_pairs"):
        if type(record.get(field)) is not int:
            raise PersistFormatError(f"bad {field!r} field")
    code = record.get("code")
    if not isinstance(code, str) or not code:
        raise PersistFormatError("missing micro-op stream")
    origins = record.get("origins")
    if not isinstance(origins, list):
        raise PersistFormatError("missing origins")
    covered = 0
    for run in origins:
        if (not isinstance(run, (list, tuple)) or len(run) != 2
                or not (run[0] is None or type(run[0]) is int)
                or type(run[1]) is not int or run[1] < 1):
            raise PersistFormatError(f"bad origins run {run!r}")
        covered += run[1]
    # a micro-op is at least one 16-bit parcel (four hex digits): bounds
    # what expanding the runs may allocate; exact coverage is the
    # decoder's finding
    if covered > len(code) // 4:
        raise PersistFormatError(
            f"origins cover {covered} micro-ops, more than the code holds")
    for field in ("exits", "side_table", "source"):
        if not isinstance(record.get(field), list):
            raise PersistFormatError(f"missing {field!r} list")
    for exit_fields in record["exits"]:
        if (not isinstance(exit_fields, (list, tuple))
                or len(exit_fields) != 3
                or type(exit_fields[0]) is not int
                or exit_fields[1] not in _EXIT_KINDS
                or not (exit_fields[2] is None
                        or type(exit_fields[2]) is int)):
            raise PersistFormatError(f"bad exit record {exit_fields!r}")
    for side in record["side_table"]:
        if (not isinstance(side, (list, tuple)) or len(side) != 2
                or type(side[0]) is not int or type(side[1]) is not int):
            raise PersistFormatError(f"bad side-table record {side!r}")
    for entry in record["source"]:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or type(entry[0]) is not int
                or not isinstance(entry[1], str)):
            raise PersistFormatError(f"bad source entry {entry!r}")
    if record.get("key") != record_key(record):
        raise PersistFormatError("content key does not match payload")


def source_matches(record: Dict, memory) -> bool:
    """Whether the record's source bytes match the current memory,
    compared one read per contiguous run of ``source`` entries."""
    try:
        runs: List[List] = []       # [addr, bytes] of each run so far
        for addr, hexbytes in record["source"]:
            if not runs or addr != runs[-1][0] + len(runs[-1][1]):
                runs.append([addr, b""])
            runs[-1][1] += bytes.fromhex(hexbytes)
        return all(memory.read(addr, len(data)) == data
                   for addr, data in runs)
    except (ValueError, MemoryError_):
        return False


def record_code(record: Dict) -> bytes:
    """A validated record's encoded stream."""
    try:
        return bytes.fromhex(record["code"])
    except ValueError as error:
        raise PersistFormatError(f"code is not hex: {error}") from error


def record_stream(record: Dict) -> Tuple[bytes, List[Optional[int]]]:
    """:func:`record_code` and the ``x86_addr`` of each micro-op in it
    (``origins`` expanded)."""
    return record_code(record), expand_origins(record["origins"])


def materialize(record: Dict, native_addr: int,
                uop_count: int) -> Translation:
    """Build an installable Translation from a validated record.

    The caller supplies the target ``native_addr`` (the owning cache's
    ``reserve()``); exit stubs and side-table entries are rebased onto
    it.  Micro-op displacements (BC/JMP) are translation-relative and
    need no adjustment.  The loader passes the ``uop_count`` its walk
    found, and installs the code it screened.
    """
    translation = Translation(
        entry=record["entry"], kind=record["kind"],
        native_addr=native_addr,
        x86_addrs=list(record["x86_addrs"]),
        instr_count=record["instr_count"], uop_count=uop_count,
        fused_pairs=record["fused_pairs"], origins=record["origins"])
    for offset, kind, x86_target in record["exits"]:
        translation.exits.append(ExitStub(
            stub_addr=native_addr + offset, kind=kind,
            x86_target=x86_target))
    for offset, x86_addr in record["side_table"]:
        translation.side_table[native_addr + offset] = x86_addr
    return translation
