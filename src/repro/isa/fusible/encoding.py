"""Binary encoding of fusible micro-ops (16-bit / 32-bit formats).

Micro-op streams are sequences of 16-bit little-endian *parcels*.  The
first parcel of every micro-op carries the discriminator bits, so a decoder
walking the stream never needs lookahead:

16-bit format (one parcel)::

    bit 15   F (fused-pair head)
    bit 14   0 (16-bit)
    bits 13..9  opcode5
    bits 8..5   rd  (R0..R15)
    bits 4..1   rs / imm4
    bit 0    .f (set architected flags)

32-bit format (two parcels; the *high* half is emitted first)::

    bit 31   F
    bit 30   1 (32-bit)
    bits 29..24 opcode6
    bits 23..19 rd    (or cond for BC; top of imm24 for JMP/LUI)
    bits 18..14 rs1
    bit 13   .f
    bits 12..0  imm13 / rs2(bits 4..0) / cond(bits 8..5 for SEL)

JMP uses bits 23..0 as a signed 24-bit parcel-stream byte offset; LUI uses
bits 18..0 as its immediate.
"""

from __future__ import annotations

import struct
from contextlib import suppress
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp
from repro.isa.x86lite.registers import Cond


class UopEncodeError(Exception):
    """Raised when a micro-op cannot be represented in its format."""


class UopDecodeError(Exception):
    """Raised on invalid micro-op bytes."""


_IMM13_MIN, _IMM13_MAX = -(1 << 12), (1 << 12) - 1
_IMM24_MIN, _IMM24_MAX = -(1 << 23), (1 << 23) - 1

#: bit 30 of a 32-bit micro-op's word (bit 14 of its first parcel)
_LONG_FORMAT = 1 << 30
#: bit 31 of a 32-bit micro-op's word (bit 15 of its first parcel)
_FUSED = 1 << 31

_PARCEL = struct.Struct("<H").pack
#: 32-bit format, high parcel first: the discriminator bits lead the stream
_PARCELS = struct.Struct("<HH").pack


def imm13_in_range(op: UOp, imm: int) -> bool:
    """Whether ``imm`` fits the 13-bit field of ``op``."""
    if OP_INFO[op].form == "U13":
        return 0 <= imm <= 0x1FFF
    return _IMM13_MIN <= imm <= _IMM13_MAX


#: codec form -> (its immediate's bits in the 32-bit word, least and
#: greatest value): the fields a template (``template.py``) may leave open
_IMM_FIELDS = {"I13": (0x1FFF, _IMM13_MIN, _IMM13_MAX),
               "U13": (0x1FFF, 0, 0x1FFF),
               "U19": (0x7FFFF, 0, 0x7FFFF),
               "J24": (0xFFFFFF, _IMM24_MIN, _IMM24_MAX)}


def imm_field(op: UOp) -> "tuple[int, int, int]":
    """``(mask, least, greatest)`` of the immediate of ``op``'s form;
    ``KeyError`` for a form whose immediate no template can patch."""
    return _IMM_FIELDS[OP_INFO[op].form]


def _check_reg(value: int, limit: int, what: str) -> int:
    if not 0 <= value < limit:
        raise UopEncodeError(f"{what} {value} out of range (<{limit})")
    return value


def _check_cond(uop: MicroOp) -> int:
    if uop.cond is None:
        raise UopEncodeError(f"{uop.op.name} requires a condition")
    return int(uop.cond)


def _rd_rs1_f(uop: MicroOp) -> int:
    return (_check_reg(uop.rd, 32, "rd") << 19
            | _check_reg(uop.rs1, 32, "rs1") << 14
            | uop.setflags << 13)


# -- per-form packers: the operand bits of the encoded word --------------------

def _pack_s2(uop: MicroOp) -> int:
    return (_check_reg(uop.rd, 16, "short rd") << 5
            | _check_reg(uop.rs1, 16, "short rs") << 1 | uop.setflags)


def _pack_s2i(uop: MicroOp) -> int:
    word = _check_reg(uop.rd, 16, "short rd") << 5 | uop.setflags
    if not -8 <= uop.imm <= 7:
        raise UopEncodeError(f"imm4 {uop.imm} out of range")
    return word | (uop.imm & 0xF) << 1


def _pack_j24(uop: MicroOp) -> int:
    if not _IMM24_MIN <= uop.imm <= _IMM24_MAX:
        raise UopEncodeError(f"imm24 {uop.imm} out of range")
    return uop.imm & 0xFFFFFF


def _pack_u19(uop: MicroOp) -> int:
    if not 0 <= uop.imm < (1 << 19):
        raise UopEncodeError(f"imm19 {uop.imm:#x} out of range")
    return _check_reg(uop.rd, 32, "rd") << 19 | uop.imm


def _pack_bc(uop: MicroOp) -> int:
    cond = _check_cond(uop)
    if not _IMM13_MIN <= uop.imm <= _IMM13_MAX:
        raise UopEncodeError(f"imm13 {uop.imm} out of range")
    return cond << 19 | uop.imm & 0x1FFF


def _pack_sel(uop: MicroOp) -> int:
    return _check_cond(uop) << 5 | _rd_rs1_f(uop)


def _pack_r3(uop: MicroOp) -> int:
    return _rd_rs1_f(uop) | _check_reg(uop.rs2, 32, "rs2")


def _pack_r1(uop: MicroOp) -> int:
    return _check_reg(uop.rd, 32, "rd") << 19


def _pack_x2(uop: MicroOp) -> int:
    return (_check_reg(uop.rd, 32, "fd") << 19
            | _check_reg(uop.rs1, 32, "fs") << 14)


def _pack_imm13(uop: MicroOp) -> int:
    if not imm13_in_range(uop.op, uop.imm):
        raise UopEncodeError(f"imm13 {uop.imm} out of range for "
                             f"{uop.op.value}")
    return _rd_rs1_f(uop) | uop.imm & 0x1FFF


# -- per-form unpackers: (op, word, x86_addr) -> MicroOp -----------------------

_CONDS = {int(cond): cond for cond in Cond}


def _decode_cond(value: int) -> Cond:
    cond = _CONDS.get(value)    # ``Cond(value)`` is a Python-level call
    if cond is None:
        raise UopDecodeError(f"invalid condition code {value}")
    return cond


def _sext13(word: int) -> int:
    return (word & 0x1FFF) - 0x2000 if word & 0x1000 else word & 0x1FFF


def _sext24(word: int) -> int:
    return (word & 0xFFFFFF) - 0x1000000 if word & 0x800000 \
        else word & 0xFFFFFF


def _unpack_s2(op: UOp, word: int, x86_addr) -> MicroOp:
    return MicroOp(op, word >> 5 & 0xF, word >> 1 & 0xF, 0, 0, None,
                   bool(word & 0x8000), bool(word & 1), x86_addr)


def _unpack_s2i(op: UOp, word: int, x86_addr) -> MicroOp:
    field = word >> 1 & 0xF
    return MicroOp(op, word >> 5 & 0xF, 0, 0,
                   field - 16 if field & 0x8 else field, None,
                   bool(word & 0x8000), bool(word & 1), x86_addr)


def _unpacker(rd: int = 0, rs1: int = 0, rs2: int = 0, flags: int = 0,
              imm=None, cond=None):
    """Unpacker of one 32-bit form.  The masks select the register and
    ``.f`` fields the form carries (a field it does not carry decodes
    as 0); ``imm``/``cond`` extract those two from the word."""
    def unpack(op: UOp, word: int, x86_addr) -> MicroOp:
        return MicroOp(op, word >> 19 & rd, word >> 14 & rs1, word & rs2,
                       imm(word) if imm else 0,
                       cond(word) if cond else None,
                       bool(word & _FUSED), bool(word & flags), x86_addr)
    return unpack


_REG, _F = 0x1F, 1 << 13

#: codec form (``OpInfo.form``) -> (packer, unpacker, carried bits): the
#: operand bits (of 9 in the 16-bit format, 24 in the 32-bit one) the form
#: carries; the unpacker ignores the rest and the packer leaves them clear.
_CODECS = {
    "S2": (_pack_s2, _unpack_s2, 0x1FF),
    "S2I": (_pack_s2i, _unpack_s2i, 0x1FF),
    "N0": (lambda uop: 0, _unpacker(), 0),
    "R1": (_pack_r1, _unpacker(rd=_REG), 0xF80000),
    "X2": (_pack_x2, _unpacker(rd=_REG, rs1=_REG), 0xFFC000),
    "R2": (_rd_rs1_f, _unpacker(rd=_REG, rs1=_REG, flags=_F), 0xFFE000),
    "R3": (_pack_r3, _unpacker(rd=_REG, rs1=_REG, rs2=_REG, flags=_F),
           0xFFE01F),
    "SEL": (_pack_sel, _unpacker(
        rd=_REG, rs1=_REG, flags=_F,
        cond=lambda word: _decode_cond(word >> 5 & 0xF)), 0xFFE1E0),
    "I13": (_pack_imm13, _unpacker(rd=_REG, rs1=_REG, flags=_F,
                                   imm=_sext13), 0xFFFFFF),
    "U13": (_pack_imm13, _unpacker(rd=_REG, rs1=_REG, flags=_F,
                                   imm=lambda word: word & 0x1FFF),
            0xFFFFFF),
    "U19": (_pack_u19, _unpacker(rd=_REG,
                                 imm=lambda word: word & 0x7FFFF),
            0xFFFFFF),
    "BC": (_pack_bc, _unpacker(
        imm=_sext13, cond=lambda word: _decode_cond(word >> 19 & 0x1F)),
        0xF81FFF),
    "J24": (_pack_j24, _unpacker(imm=_sext24), 0xFFFFFF),
}

_OPERANDS = ("rd", "rs1", "rs2", "imm", "cond", "setflags")


def _dropped(op: UOp, form: str) -> List[str]:
    """The operands ``op``'s form drops: no carried bit, set alone,
    changes them in the micro-op its word decodes to."""
    unpack, carried = _CODECS[form][1:]
    bare, kept = unpack(op, 0, None), set()
    for bit in range(24):
        with suppress(UopDecodeError):      # no condition of that number
            probe = unpack(op, carried & 1 << bit, None)
            kept.update(name for name in _OPERANDS
                        if getattr(probe, name) != getattr(bare, name))
    return [name for name in _OPERANDS if name not in kept]


#: opcode -> the operand fields its form drops
_DROPPED = {op: _dropped(op, info.form) for op, info in OP_INFO.items()}

#: opcode -> (packer, word with the format bit and opcode number set,
#: the getter of the operands its form drops, and their unset values)
_ENCODERS = {
    op: (_CODECS[info.form][0],
         info.number << 9 if info.length == 2
         else _LONG_FORMAT | info.number << 24,
         attrgetter(*_DROPPED[op]), attrgetter(*_DROPPED[op])(MicroOp(op)))
    for op, info in OP_INFO.items()}

#: opcode number -> (opcode, unpacker), per format
_SHORT_DECODERS = {info.number: (op, _CODECS[info.form][1])
                   for op, info in OP_INFO.items() if info.length == 2}
_LONG_DECODERS = {info.number: (op, _CODECS[info.form][1])
                  for op, info in OP_INFO.items() if info.length == 4}


def _stream_order(word: int) -> int:
    # as ``int.from_bytes(the word's bytes, "little")`` reads a 32-bit
    # word: its high parcel leads the stream
    return word >> 16 | (word & 0xFFFF) << 16


#: opcode -> its form's don't-care bits, as they lie in the stream
_DONT_CARE = {
    op: 0x1FF & ~_CODECS[info.form][2] if info.length == 2
    else _stream_order(0xFFFFFF & ~_CODECS[info.form][2])
    for op, info in OP_INFO.items()}


def is_canonical(op: UOp, chunk: bytes) -> bool:
    """Whether ``chunk``, the bytes a micro-op of ``op`` was decoded
    from, has every don't-care bit of its form clear -- which is exactly
    when ``encode_uop(decode_uop(chunk)) == chunk``."""
    return not int.from_bytes(chunk, "little") & _DONT_CARE[op]


def encode_uop(uop: MicroOp) -> bytes:
    """Encode one micro-op to its 2- or 4-byte form (an operand its
    form drops must be unset: the bytes would decode to another)."""
    pack, word, dropped, unset = _ENCODERS[uop.op]
    if dropped(uop) != unset:
        raise UopEncodeError(f"{uop.op.name} carries no " + ", ".join(
            name for name, value, blank in zip(_DROPPED[uop.op],
                                               dropped(uop), unset)
            if value != blank))
    word |= pack(uop)
    if not word & _LONG_FORMAT:
        return _PARCEL(word | uop.fused << 15)
    return _PARCELS(word >> 16 | uop.fused << 15, word & 0xFFFF)


def decode_uop(data: bytes, offset: int = 0,
               x86_addr: Optional[int] = None) -> MicroOp:
    """Decode one micro-op from ``data`` at ``offset``.  ``x86_addr`` is
    the metadata to attach: the bytes do not carry it."""
    if offset + 2 > len(data):
        raise UopDecodeError("truncated micro-op stream")
    first = data[offset] | data[offset + 1] << 8
    if not first & 0x4000:  # 16-bit format
        number = (first >> 9) & 0x1F
        entry = _SHORT_DECODERS.get(number)
        if entry is None:
            raise UopDecodeError(f"invalid short opcode {number}")
        return entry[1](entry[0], first, x86_addr)
    if offset + 4 > len(data):
        raise UopDecodeError("truncated 32-bit micro-op")
    number = (first >> 8) & 0x3F
    entry = _LONG_DECODERS.get(number)
    if entry is None:
        raise UopDecodeError(f"invalid long opcode {number}")
    return entry[1](entry[0], first << 16 | data[offset + 2]
                    | data[offset + 3] << 8, x86_addr)


class Word:
    """Everything static about one micro-op word: what it decodes to and
    what each layer would otherwise re-derive from that per occurrence."""

    __slots__ = ("uop", "info", "shape", "canonical", "code", "step",
                 "facts")

    def __init__(self, uop: MicroOp, canonical: bool = False,
                 code: Optional[bytes] = None) -> None:
        self.uop = uop                  # ``x86_addr`` None in a table
        self.info = info = OP_INFO[uop.op]
        #: the machine's shape byte: length, | 0x80 for a fused head
        self.shape = info.length | 0x80 if uop.fused else info.length
        self.canonical = canonical      # ``is_canonical`` of its bytes
        self.code = code                # its bytes (a table's key)
        #: filled on first need: the machine's bound step (a branch
        #: binds per site: never) and the verifier's ``word_facts``
        self.step = self.facts = None


def word_of(uop: MicroOp) -> Word:
    """The word ``uop`` encodes to, outside any table: what a translator
    pass emits where it changes a micro-op (its facts are ``uop``'s own;
    raises ``UopEncodeError``)."""
    return Word(uop, True, encode_uop(uop))


class WordTable(dict):
    """``word bytes -> Word``, one per VM (its machine owns it): loader,
    verifier and machine decode and classify each distinct word once.
    ``table[chunk]`` enters a missing word; an entry is only ever
    ``decode_uop``'s reading of its own key, so it cannot go stale."""

    def __missing__(self, chunk: bytes) -> Word:
        # bytes that do not decode, or are cut short, raise: not entered
        uop = decode_uop(chunk)
        word = self[chunk] = Word(uop, is_canonical(uop.op, chunk), chunk)
        return word


def encode_stream(uops: List[MicroOp]) -> bytes:
    """Encode a micro-op sequence to bytes."""
    return b"".join(encode_uop(uop) for uop in uops)


def stream_words(data: bytes, words: WordTable) -> List[Word]:
    """The table's entry of each word of ``data``, in stream order (a
    word new to ``words`` is decoded and entered on the way)."""
    entries: List[Word] = []
    offset, last = 0, len(data) - 1
    while offset < last:
        # a word is as long as the format bit of its first parcel says
        end = offset + (4 if data[offset + 1] & 0x40 else 2)
        entries.append(words[data[offset:end]])
        offset = end
    if offset == last:
        words[data[offset:]]        # an odd byte: cut short, raises
    return entries


def decode_stream(data: bytes,
                  x86_addrs: Optional[Sequence[Optional[int]]] = None,
                  words: Optional[WordTable] = None) -> List[MicroOp]:
    """Decode an entire byte string as a micro-op sequence.

    ``x86_addrs``, when given, holds the ``x86_addr`` of each micro-op in
    stream order and must cover the stream exactly: one entry more or
    fewer than ``data`` holds micro-ops is a decode error.  With a table
    only a word new to ``words`` is decoded, and ``x86_addr`` is stamped
    onto a copy of the table's micro-op; a table for one stream would
    only cost, so without one every word is decoded.
    """
    if words is not None:
        uops = [word.uop for word in stream_words(data, words)]
    else:
        uops = []
        offset, size = 0, len(data)
        while offset < size:
            uops.append(decode_uop(data, offset))   # raises if cut short
            offset += 4 if data[offset + 1] & 0x40 else 2
    if x86_addrs is None:
        return uops
    if len(uops) != len(x86_addrs):
        raise UopDecodeError(
            f"x86_addr list covers {len(x86_addrs)} micro-op(s), not the "
            f"stream's {len(uops)}")
    return [uop if x86_addr is None else MicroOp(
        uop.op, uop.rd, uop.rs1, uop.rs2, uop.imm, uop.cond, uop.fused,
        uop.setflags, x86_addr) for uop, x86_addr in zip(uops, x86_addrs)]


def stream_length(uops: List[MicroOp]) -> int:
    """Total encoded length in bytes."""
    return sum(uop.length for uop in uops)
