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

from typing import List

from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import (
    I_FORM_OPS,
    LOAD_OPS,
    R_FORM_OPS,
    RR_FORM_OPS,
    STORE_OPS,
    UOp,
)
from repro.isa.x86lite.registers import Cond


class UopEncodeError(Exception):
    """Raised when a micro-op cannot be represented in its format."""


class UopDecodeError(Exception):
    """Raised on invalid micro-op bytes."""


_SHORT_NUMBERS = {
    UOp.NOP2: 0, UOp.MOV2: 1, UOp.ADD2: 2, UOp.SUB2: 3, UOp.AND2: 4,
    UOp.OR2: 5, UOp.XOR2: 6, UOp.CMP2: 7, UOp.TEST2: 8, UOp.ADDI2: 9,
}
_SHORT_BY_NUMBER = {number: op for op, number in _SHORT_NUMBERS.items()}

_LONG_NUMBERS = {
    UOp.NOP: 0, UOp.ADD: 1, UOp.ADC: 2, UOp.SUB: 3, UOp.SBB: 4,
    UOp.AND: 5, UOp.OR: 6, UOp.XOR: 7, UOp.SHL: 8, UOp.SHR: 9,
    UOp.SAR: 10, UOp.MULL: 11, UOp.MULLU: 12, UOp.MULH: 13, UOp.MULHU: 14,
    UOp.SEL: 15, UOp.ADDI: 16, UOp.SUBI: 17, UOp.ANDI: 18, UOp.ORI: 19,
    UOp.XORI: 20, UOp.SHLI: 21, UOp.SHRI: 22, UOp.SARI: 23, UOp.LUI: 24,
    UOp.INCF: 25, UOp.DECF: 26, UOp.LDW: 27, UOp.LDHU: 28, UOp.LDHS: 29,
    UOp.LDBU: 30, UOp.LDBS: 31, UOp.STW: 32, UOp.STH: 33, UOp.STB: 34,
    UOp.LDF: 35, UOp.STF: 36, UOp.BC: 37, UOp.JMP: 38, UOp.JR: 39,
    UOp.VMEXIT: 40, UOp.VMCALL: 41, UOp.RDFLG: 42, UOp.WRFLG: 43,
    UOp.XLTX86: 44, UOp.LDCSR: 45, UOp.JCSRC: 46, UOp.JCSRT: 47,
    UOp.HALT: 48,
}
_LONG_BY_NUMBER = {number: op for op, number in _LONG_NUMBERS.items()}

_IMM13_MIN, _IMM13_MAX = -(1 << 12), (1 << 12) - 1
_IMM24_MIN, _IMM24_MAX = -(1 << 23), (1 << 23) - 1

#: Immediate forms that zero-extend their 13-bit field.
_UNSIGNED_IMM_OPS = frozenset({UOp.ANDI, UOp.ORI, UOp.XORI, UOp.SHLI,
                               UOp.SHRI, UOp.SARI, UOp.VMCALL})


def imm13_in_range(op: UOp, imm: int) -> bool:
    """Whether ``imm`` fits the 13-bit field of ``op``."""
    if op in _UNSIGNED_IMM_OPS:
        return 0 <= imm <= 0x1FFF
    return _IMM13_MIN <= imm <= _IMM13_MAX


def _check_reg(value: int, limit: int, what: str) -> int:
    if not 0 <= value < limit:
        raise UopEncodeError(f"{what} {value} out of range (<{limit})")
    return value


def encode_uop(uop: MicroOp) -> bytes:
    """Encode one micro-op to its 2- or 4-byte form."""
    if uop.is_short:
        word = (int(uop.fused) << 15) | (_SHORT_NUMBERS[uop.op] << 9)
        word |= _check_reg(uop.rd, 16, "short rd") << 5
        if uop.op is UOp.ADDI2:
            if not -8 <= uop.imm <= 7:
                raise UopEncodeError(f"imm4 {uop.imm} out of range")
            word |= (uop.imm & 0xF) << 1
        else:
            word |= _check_reg(uop.rs1, 16, "short rs") << 1
        word |= int(uop.setflags)
        return word.to_bytes(2, "little")

    op = uop.op
    number = _LONG_NUMBERS.get(op)
    if number is None:
        raise UopEncodeError(f"unencodable micro-op {op!r}")
    word = (int(uop.fused) << 31) | (1 << 30) | (number << 24)

    if op is UOp.JMP:
        if not _IMM24_MIN <= uop.imm <= _IMM24_MAX:
            raise UopEncodeError(f"imm24 {uop.imm} out of range")
        word |= uop.imm & 0xFFFFFF
    elif op is UOp.LUI:
        if not 0 <= uop.imm < (1 << 19):
            raise UopEncodeError(f"imm19 {uop.imm:#x} out of range")
        word |= _check_reg(uop.rd, 32, "rd") << 19
        word |= uop.imm
    elif op is UOp.BC:
        if uop.cond is None:
            raise UopEncodeError("BC requires a condition")
        if not imm13_in_range(op, uop.imm):
            raise UopEncodeError(f"imm13 {uop.imm} out of range")
        word |= int(uop.cond) << 19
        word |= uop.imm & 0x1FFF
    elif op is UOp.SEL:
        if uop.cond is None:
            raise UopEncodeError("SEL requires a condition")
        word |= _check_reg(uop.rd, 32, "rd") << 19
        word |= _check_reg(uop.rs1, 32, "rs1") << 14
        word |= int(uop.cond) << 5
        word |= int(uop.setflags) << 13
    elif op in R_FORM_OPS:
        word |= _check_reg(uop.rd, 32, "rd") << 19
        word |= _check_reg(uop.rs1, 32, "rs1") << 14
        word |= int(uop.setflags) << 13
        word |= _check_reg(uop.rs2, 32, "rs2")
    elif op in RR_FORM_OPS or op in (UOp.WRFLG, UOp.JR, UOp.VMEXIT):
        word |= _check_reg(uop.rd, 32, "rd") << 19
        word |= _check_reg(uop.rs1, 32, "rs1") << 14
        word |= int(uop.setflags) << 13
    elif op in (UOp.RDFLG, UOp.LDCSR):
        word |= _check_reg(uop.rd, 32, "rd") << 19
    elif op is UOp.XLTX86:
        word |= _check_reg(uop.rd, 32, "fd") << 19
        word |= _check_reg(uop.rs1, 32, "fs") << 14
    elif op in I_FORM_OPS or op in LOAD_OPS or op in STORE_OPS \
            or op in (UOp.VMCALL, UOp.JCSRC, UOp.JCSRT):
        if not imm13_in_range(op, uop.imm):
            raise UopEncodeError(f"imm13 {uop.imm} out of range for "
                                 f"{op.value}")
        word |= _check_reg(uop.rd, 32, "rd") << 19
        word |= _check_reg(uop.rs1, 32, "rs1") << 14
        word |= int(uop.setflags) << 13
        word |= uop.imm & 0x1FFF
    elif op in (UOp.NOP, UOp.HALT):
        pass
    else:  # pragma: no cover - table is exhaustive
        raise UopEncodeError(f"unhandled micro-op {op!r}")

    # high parcel first so the discriminator bits lead the stream
    return bytes(((word >> 16) & 0xFFFF).to_bytes(2, "little")
                 + (word & 0xFFFF).to_bytes(2, "little"))


def _decode_cond(value: int) -> Cond:
    try:
        return Cond(value)
    except ValueError:
        raise UopDecodeError(f"invalid condition code {value}") from None


def decode_uop(data: bytes, offset: int = 0) -> MicroOp:
    """Decode one micro-op from ``data`` at ``offset``."""
    if offset + 2 > len(data):
        raise UopDecodeError("truncated micro-op stream")
    first = int.from_bytes(data[offset:offset + 2], "little")
    fused = bool(first & 0x8000)

    if not first & 0x4000:  # 16-bit format
        number = (first >> 9) & 0x1F
        op = _SHORT_BY_NUMBER.get(number)
        if op is None:
            raise UopDecodeError(f"invalid short opcode {number}")
        rd = (first >> 5) & 0xF
        field = (first >> 1) & 0xF
        setflags = bool(first & 1)
        if op is UOp.ADDI2:
            imm = field - 16 if field & 0x8 else field
            return MicroOp(op, rd=rd, imm=imm, fused=fused,
                           setflags=setflags)
        return MicroOp(op, rd=rd, rs1=field, fused=fused, setflags=setflags)

    if offset + 4 > len(data):
        raise UopDecodeError("truncated 32-bit micro-op")
    second = int.from_bytes(data[offset + 2:offset + 4], "little")
    word = (first << 16) | second
    number = (word >> 24) & 0x3F
    op = _LONG_BY_NUMBER.get(number)
    if op is None:
        raise UopDecodeError(f"invalid long opcode {number}")

    rd = (word >> 19) & 0x1F
    rs1 = (word >> 14) & 0x1F
    setflags = bool((word >> 13) & 1)
    imm13 = word & 0x1FFF

    def sext13(value: int) -> int:
        return value - 0x2000 if value & 0x1000 else value

    if op is UOp.JMP:
        imm24 = word & 0xFFFFFF
        imm = imm24 - 0x1000000 if imm24 & 0x800000 else imm24
        return MicroOp(op, imm=imm, fused=fused)
    if op is UOp.LUI:
        return MicroOp(op, rd=rd, imm=word & 0x7FFFF, fused=fused)
    if op is UOp.BC:
        return MicroOp(op, cond=_decode_cond(rd), imm=sext13(imm13),
                       fused=fused)
    if op is UOp.SEL:
        return MicroOp(op, rd=rd, rs1=rs1,
                       cond=_decode_cond((word >> 5) & 0xF), fused=fused,
                       setflags=setflags)
    if op in R_FORM_OPS:
        return MicroOp(op, rd=rd, rs1=rs1, rs2=word & 0x1F, fused=fused,
                       setflags=setflags)
    if op in RR_FORM_OPS or op in (UOp.WRFLG, UOp.JR, UOp.VMEXIT):
        return MicroOp(op, rd=rd, rs1=rs1, fused=fused, setflags=setflags)
    if op in (UOp.RDFLG, UOp.LDCSR):
        return MicroOp(op, rd=rd, fused=fused)
    if op is UOp.XLTX86:
        return MicroOp(op, rd=rd, rs1=rs1, fused=fused)
    if op in (UOp.NOP, UOp.HALT):
        return MicroOp(op, fused=fused)
    # immediate forms
    imm = imm13 if op in _UNSIGNED_IMM_OPS else sext13(imm13)
    return MicroOp(op, rd=rd, rs1=rs1, imm=imm, fused=fused,
                   setflags=setflags)


def encode_stream(uops: List[MicroOp]) -> bytes:
    """Encode a micro-op sequence to bytes."""
    return b"".join(encode_uop(uop) for uop in uops)


def decode_stream(data: bytes) -> List[MicroOp]:
    """Decode an entire byte string as a micro-op sequence."""
    out: List[MicroOp] = []
    offset = 0
    while offset < len(data):
        uop = decode_uop(data, offset)
        out.append(uop)
        offset += uop.length
    return out


def stream_length(uops: List[MicroOp]) -> int:
    """Total encoded length in bytes."""
    return sum(uop.length for uop in uops)
