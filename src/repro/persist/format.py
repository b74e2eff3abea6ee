"""Serialization format for persisted translations.

A persisted translation is a *record*: a JSON-friendly dict holding the
canonical (un-chained, un-redirected) micro-op stream of one BBT or SBT
translation plus everything needed to re-materialize it in a fresh VM —
exit-stub offsets, side-table offsets, profiling-counter linkage, and a
**source fingerprint**.

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
from typing import Dict, List, Optional

from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.x86lite.decoder import DecodeError, decode_at
from repro.isa.x86lite.registers import Cond
from repro.memory.address_space import MemoryError_
from repro.translator.code_cache import ExitStub, Translation

#: Bump on any incompatible change to the record layout.
FORMAT_VERSION = 1

#: Exit-stub kinds a record may carry (mirrors ExitStub.kind).
_EXIT_KINDS = frozenset({"jump", "fallthrough", "taken", "indirect",
                         "vmcall", "loop"})


_COND_VALUES = frozenset(int(cond) for cond in Cond)


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
    payload = {name: value for name, value in sorted(record.items())
               if name != "key"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# -- micro-op <-> list ------------------------------------------------------

def _uop_to_list(uop: MicroOp) -> List:
    return [uop.op.value, uop.rd, uop.rs1, uop.rs2, uop.imm,
            None if uop.cond is None else int(uop.cond),
            int(uop.fused), int(uop.setflags), uop.x86_addr]


def _is_number(value) -> bool:
    """An integer, but not JSON ``true``/``false`` (``bool`` is an
    ``int`` subclass and would pass for register 1 or 0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _uop_from_list(fields) -> MicroOp:
    if not isinstance(fields, (list, tuple)) or len(fields) != 9:
        raise PersistFormatError(f"malformed micro-op record: {fields!r}")
    name, rd, rs1, rs2, imm, cond, fused, setflags, x86_addr = fields
    try:
        op = UOp(name)
    except ValueError as error:
        raise PersistFormatError(f"unknown micro-op {name!r}") from error
    for value in (rd, rs1, rs2, imm):
        if not _is_number(value):
            raise PersistFormatError(f"non-integer field in {fields!r}")
    # capture writes the two flags as int(bool): exactly 0 or 1
    for value in (fused, setflags):
        if type(value) is not int or value not in (0, 1):
            raise PersistFormatError(f"bad flag field in {fields!r}")
    if cond is not None:
        if not _is_number(cond) or cond not in _COND_VALUES:
            raise PersistFormatError(
                f"bad condition {cond!r} in {fields!r}")
        cond = Cond(cond)
    if x86_addr is not None and not _is_number(x86_addr):
        raise PersistFormatError(f"bad x86_addr in {fields!r}")
    return MicroOp(op, rd=rd, rs1=rs1, rs2=rs2, imm=imm, cond=cond,
                   fused=bool(fused), setflags=bool(setflags),
                   x86_addr=x86_addr)


# -- translation -> record --------------------------------------------------

def _covered_source(translation: Translation, memory) -> List[List]:
    """``[addr, hexbytes]`` for every x86 instruction the stream covers.

    Coverage comes from the per-micro-op ``x86_addr`` metadata, so the
    fingerprint spans exactly the instructions whose semantics the
    translation encodes (including superblock constituents).
    """
    addrs = sorted({uop.x86_addr for uop in translation.uops
                    if uop.x86_addr is not None})
    source: List[List] = []
    for addr in addrs:
        instr = decode_at(memory, addr)
        nbytes = instr.next_addr - addr
        source.append([addr, memory.read(addr, nbytes).hex()])
    return source


def serialize_translation(translation: Translation,
                          memory) -> Optional[Dict]:
    """One translation -> JSON-ready record, or None if unserializable.

    Serializes the *canonical* stream (``translation.uops``), which chain
    patches and BBT->SBT redirects never touch — persisted translations
    are therefore always in their un-chained form and re-link naturally
    after loading.
    """
    if not translation.uops:
        return None
    try:
        source = _covered_source(translation, memory)
    except (DecodeError, MemoryError_):
        return None  # source no longer decodes (e.g. overwritten text)
    record = {
        "format": FORMAT_VERSION,
        "kind": translation.kind,
        "entry": translation.entry,
        "x86_addrs": list(translation.x86_addrs),
        "instr_count": translation.instr_count,
        "fused_pairs": translation.fused_pairs,
        "counter_addr": translation.counter_addr,
        "uops": [_uop_to_list(uop) for uop in translation.uops],
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
    for field in ("entry", "instr_count", "fused_pairs"):
        if not isinstance(record.get(field), int):
            raise PersistFormatError(f"bad {field!r} field")
    if not isinstance(record.get("uops"), list) or not record["uops"]:
        raise PersistFormatError("missing micro-op stream")
    for exit_fields in record.get("exits", ()):
        if (not isinstance(exit_fields, (list, tuple))
                or len(exit_fields) != 3
                or not isinstance(exit_fields[0], int)
                or exit_fields[1] not in _EXIT_KINDS
                or not (exit_fields[2] is None
                        or isinstance(exit_fields[2], int))):
            raise PersistFormatError(f"bad exit record {exit_fields!r}")
    for side in record.get("side_table", ()):
        if (not isinstance(side, (list, tuple)) or len(side) != 2
                or not all(isinstance(value, int) for value in side)):
            raise PersistFormatError(f"bad side-table record {side!r}")
    source = record.get("source")
    if not isinstance(source, list):
        raise PersistFormatError("missing source fingerprint")
    for entry in source:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], str)):
            raise PersistFormatError(f"bad source entry {entry!r}")
    if record.get("key") != record_key(record):
        raise PersistFormatError("content key does not match payload")


def source_matches(record: Dict, memory) -> bool:
    """Whether the record's source bytes match the current memory."""
    try:
        for addr, hexbytes in record["source"]:
            data = bytes.fromhex(hexbytes)
            if memory.read(addr, len(data)) != data:
                return False
    except (ValueError, MemoryError_):
        return False
    return True


def materialize(record: Dict, native_addr: int) -> Translation:
    """Build an installable Translation from a validated record.

    The caller supplies the target ``native_addr`` (the owning cache's
    ``reserve()``); exit stubs and side-table entries are rebased onto
    it.  Micro-op displacements (BC/JMP) are translation-relative and
    need no adjustment.
    """
    uops = [_uop_from_list(fields) for fields in record["uops"]]
    translation = Translation(
        entry=record["entry"], kind=record["kind"],
        native_addr=native_addr,
        x86_addrs=list(record["x86_addrs"]),
        instr_count=record["instr_count"],
        uop_count=len(uops),
        fused_pairs=record["fused_pairs"],
        uops=uops)
    for offset, kind, x86_target in record["exits"]:
        translation.exits.append(ExitStub(
            stub_addr=native_addr + offset, kind=kind,
            x86_target=x86_target))
    for offset, x86_addr in record["side_table"]:
        translation.side_table[native_addr + offset] = x86_addr
    return translation
