"""Serialization format for persisted translations.

A persisted translation is a *record*: a JSON object holding its
``entry`` and a **source fingerprint** (``source``, the x86 bytes the
translator read as contiguous ``[addr, hex]`` runs).  No record holds
code.  A BBT record holds nothing else: a basic block is a pure function
of its one source run, so the loader derives it with the VM's own
translator.  An SBT record also holds its **path**: the entries of its
blocks (``x86_addrs``) and whether the trace closes on its head
(``loops``).  A superblock is a pure function of its path and the
configuration's SBT fields, so the loader re-forms and rebuilds it with
the VM's own translator too.  A record of an older layout reads as
corrupt.

A record is its bytes
---------------------
:func:`encode_record` writes a record's text once, at capture: compact,
key-sorted JSON, which the store writes, the wire carries and the loader
parses.  Its key is the SHA-256 of the text with its ``"key":"<hex>",``
member cut out, so the one key check (:func:`validate_record`) hashes
the bytes in hand, and a :class:`Record` (read-only) carries the text
its fields are the parse of.  The loader re-reads the recorded source
bytes from the *current* memory: a record whose source changed since it
was saved is stale.

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
from typing import Dict, Optional, Tuple

from repro.memory.address_space import MemoryError_
from repro.translator.code_cache import Translation

#: Bump on any incompatible change to the record layout.
FORMAT_VERSION = 6

#: Every member of a record of each kind, ``key`` among them.
_FIELDS = {
    "bbt": frozenset(("entry", "format", "key", "kind", "source")),
    "sbt": frozenset(("entry", "format", "key", "kind", "loops", "source",
                      "x86_addrs")),
}

#: the one JSON spelling of a record: compact, keys sorted
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: the key a record is encoded under before its text is hashed
_NO_KEY = "0" * 64

#: a record's ``key`` member as its text spells it
_key_member = '"key":"{}",'.format

class PersistFormatError(Exception):
    """A record is structurally invalid (corrupt or wrong version)."""


class Record(dict):
    """One record: its stored text, as the dict of the fields that text
    spells.  Read-only, so the fields stay what the key was computed
    over.  Only :func:`encode_record` (from fields) and
    :func:`parse_record` (from a stored text) build one."""

    __slots__ = ("text",)

    def __init__(self, text: str, fields: Dict) -> None:
        super().__init__(fields)
        self.text = text

    def _read_only(self, *_args, **_kwargs):
        raise TypeError("a record's fields are its stored text's")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return parse_record, (self.text,)


def _around_key(text: str, key: str) -> Optional[Tuple[str, str]]:
    """The text before and after its ``"key":"<key>",`` member (what the
    key is the SHA-256 of), or None when the text has no such member."""
    head, member, tail = text.partition(_key_member(key))
    return (head, tail) if member else None


def encode_record(fields) -> Record:
    """The one encoder: ``fields`` (a ``key`` among them is replaced) as
    a record, keyed by the SHA-256 of its text minus the key member."""
    fields = dict(fields, key=_NO_KEY)
    head, tail = _around_key(_encode(fields), _NO_KEY)
    fields["key"] = hashlib.sha256((head + tail).encode()).hexdigest()
    return Record(head + _key_member(fields["key"]) + tail, fields)


def parse_record(text) -> Optional[Record]:
    """A stored text as a record, or None when it is not a JSON object.
    Whether the record is intact is :func:`validate_record`'s finding."""
    if not isinstance(text, str):
        return None
    try:
        fields = json.loads(text)
    except ValueError:
        return None
    return Record(text, fields) if isinstance(fields, dict) else None


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


# -- translation -> record --------------------------------------------------

def serialize_translation(translation: Translation,
                          memory) -> Optional[Record]:
    """One installed translation -> record, or None if unserializable.

    A basic block is written as its entry and source, a superblock as
    its entry, source and path.  The source, ``translation.source``, is
    checked with one read a run: a translation whose source memory no
    longer holds is not persisted (the loader's stale rule, where a
    record is written).
    """
    if not translation.code:
        return None
    if any(memory.read(addr, len(data)) != data
           for addr, data in translation.source):
        return None
    fields = {"format": FORMAT_VERSION, "kind": translation.kind,
              "entry": translation.entry,
              "source": [[addr, data.hex()]
                         for addr, data in translation.source]}
    if translation.kind == "sbt":
        fields.update(x86_addrs=list(translation.x86_addrs),
                      loops=translation.loops)
    return encode_record(fields)


# -- record checks ---------------------------------------------------------

def _is_int(value) -> bool:
    return type(value) is int       # JSON ``true`` is no count of 1


#: each field's JSON shape, as a check
_CHECKS = {
    "entry": lambda value: _is_int(value) and 0 <= value < 1 << 32,
    "x86_addrs": lambda value: type(value) is list
    and all(map(_is_int, value)),
    "loops": lambda value: type(value) is bool,
    "source": lambda value: type(value) is list and all(
        type(run) is list and len(run) == 2 and _is_int(run[0])
        and type(run[1]) is str for run in value),
}


def validate_record(record) -> None:
    """The one integrity check, raising PersistFormatError: exactly the
    fields of its kind's layout, each of its JSON shape (a BBT record's
    source one run from its entry), then the content key over the
    stored text."""
    if not isinstance(record, Record):
        raise PersistFormatError("record is not a stored object")
    if record.get("format") != FORMAT_VERSION:
        raise PersistFormatError(
            f"format version {record.get('format')!r} != {FORMAT_VERSION}")
    kind = record.get("kind")
    if kind not in ("bbt", "sbt"):
        raise PersistFormatError(f"bad kind {kind!r}")
    if record.keys() != _FIELDS[kind]:
        raise PersistFormatError(
            f"fields {sorted(record)} are not the {kind} layout's")
    for name, check in _CHECKS.items():
        if name in record and not check(record[name]):
            raise PersistFormatError(f"bad {name!r} field")
    if kind == "bbt" and (len(record["source"]) != 1
                          or record["source"][0][0] != record["entry"]):
        raise PersistFormatError("source is not one run from the entry")
    around = _around_key(record.text, record["key"])
    try:
        if around is None or hashlib.sha256(
                "".join(around).encode()).hexdigest() != record["key"]:
            raise PersistFormatError("content key does not match the text")
    except UnicodeEncodeError as error:     # e.g. a lone surrogate
        raise PersistFormatError("the text has no UTF-8 bytes") from error


def source_matches(record, memory) -> bool:
    """Whether the record's source runs match the current memory: one
    ``fromhex`` and one read per run.  A run outside the 32-bit address
    space, or that leaves it, is stale."""
    try:
        for addr, hexbytes in record["source"]:
            data = bytes.fromhex(hexbytes)
            if addr >> 32 or memory.read(addr, len(data)) != data:
                return False
    except (ValueError, MemoryError_):
        return False
    return True
