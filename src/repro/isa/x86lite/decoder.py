"""x86lite instruction decoder.

This is the reference implementation of the "first-level (vertical) decode"
that appears three times in the paper's system: in the software BBT (where
it costs ~90 of the 105 native instructions per x86 instruction), in the
XLTx86 backend functional unit, and in the first level of the dual-mode
frontend decoder.  The first two reuse this module, so they are decode-
equivalent by construction; the third is a timing-model mode only.
"""

from __future__ import annotations

from typing import Union

from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import (
    ALU_ROW_BY_BASE,
    GROUP1_TO_OP,
    GROUP2_TO_OP,
    GROUP3_TO_OP,
    Group5,
    Op,
)
from repro.isa.x86lite.registers import Cond, Reg
from repro.isa.x86lite.encoder import (
    PREFIX_OPERAND_SIZE,
    PREFIX_REP,
    TWO_BYTE_ESCAPE,
)


class DecodeError(Exception):
    """Raised on bytes that are not a valid x86lite instruction."""


_CONDS = {int(cond): cond for cond in Cond}


def _cond(tttn: int) -> Cond:
    """The condition a Jcc/CMOVcc opcode names; ``tttn`` 10 and 11
    (parity) are not x86lite conditions."""
    cond = _CONDS.get(tttn)     # ``Cond(tttn)`` is a Python-level call
    if cond is None:
        raise DecodeError(f"invalid condition code {tttn}")
    return cond


class Cursor:
    """Byte-stream reader that tracks consumed length.  ``u8`` reads the
    bytes that say what the instruction *is* (prefix, opcode, ModRM,
    SIB); every other reader fetches a displacement or immediate,
    through ``value``."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._start = offset
        self._pos = offset

    @property
    def consumed(self) -> int:
        return self._pos - self._start

    def u8(self) -> int:
        if self._pos >= len(self._data):
            raise DecodeError("truncated instruction")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def value(self, size: int, signed: bool = False) -> int:
        """A ``size``-byte little-endian displacement or immediate."""
        end = self._pos + size
        if end > len(self._data):
            raise DecodeError("truncated instruction")
        raw = self._data[self._pos:end]
        self._pos = end
        return int.from_bytes(raw, "little", signed=signed)

    def imm8(self) -> int:
        return self.value(1)

    def i8(self) -> int:
        return self.value(1, True)

    def u16(self) -> int:
        return self.value(2)

    def u32(self) -> int:
        return self.value(4)

    def i32(self) -> int:
        return self.value(4, True)


def _decode_modrm(cursor: Cursor, size: int = 32
                  ) -> "tuple[int, Union[RegOperand, MemOperand]]":
    """Decode ModRM (+SIB, +disp).  Returns ``(reg_field, rm_operand)``."""
    modrm = cursor.u8()
    mod = modrm >> 6
    reg_field = (modrm >> 3) & 0b111
    rm = modrm & 0b111

    if mod == 0b11:
        return reg_field, RegOperand(Reg(rm))

    base: "Reg | None"
    index: "Reg | None" = None
    scale = 1

    if rm == 0b100:  # SIB follows
        sib = cursor.u8()
        scale = 1 << (sib >> 6)
        index_bits = (sib >> 3) & 0b111
        base_bits = sib & 0b111
        index = None if index_bits == 0b100 else Reg(index_bits)
        if base_bits == 0b101 and mod == 0b00:
            base = None
            disp = cursor.i32()
            return reg_field, MemOperand(base, index, scale, disp, size)
        base = Reg(base_bits)
    elif rm == 0b101 and mod == 0b00:
        disp = cursor.i32()
        return reg_field, MemOperand(None, None, 1, disp, size)
    else:
        base = Reg(rm)

    if mod == 0b00:
        disp = 0
    elif mod == 0b01:
        disp = cursor.i8()
    else:
        disp = cursor.i32()
    return reg_field, MemOperand(base, index, scale, disp, size)


def _imm(cursor: Cursor, width: int) -> ImmOperand:
    if width == 16:
        return ImmOperand(cursor.u16(), 16)
    return ImmOperand(cursor.u32(), 32)


def _sext_imm8(cursor: Cursor, width: int) -> ImmOperand:
    value = cursor.i8()
    mask = 0xFFFF if width == 16 else 0xFFFFFFFF
    return ImmOperand(value & mask, width)


def decode(data: bytes, addr: int = 0, offset: int = 0) -> Instruction:
    """Decode one instruction from ``data`` beginning at ``offset``.

    ``addr`` is the architected address of the instruction, used to resolve
    PC-relative branch targets and recorded on the result.
    """
    return decode_from(Cursor(data, offset), addr)


def decode_from(cursor: Cursor, addr: int = 0) -> Instruction:
    """:func:`decode` reading through ``cursor`` (the translation
    templates decode a shape's first instance through one that records
    where its displacement and immediate lie)."""
    rep = False
    width = 32
    prefix_count = 0
    byte = cursor.u8()
    while byte in (PREFIX_REP, PREFIX_OPERAND_SIZE):
        if byte == PREFIX_REP:
            rep = True
        else:
            width = 16
        prefix_count += 1
        if prefix_count > 4:
            raise DecodeError("too many prefixes")
        byte = cursor.u8()

    def done(op: Op, operands=(), cond=None, target=None,
             op_width: "int | None" = None, rep_flag: "bool | None" = None
             ) -> Instruction:
        length = cursor.consumed
        if length > MAX_INSTRUCTION_LENGTH:
            raise DecodeError(f"instruction longer than "
                              f"{MAX_INSTRUCTION_LENGTH} bytes")
        return Instruction(
            op=op, operands=tuple(operands),
            width=width if op_width is None else op_width,
            cond=cond, target=target,
            rep=rep if rep_flag is None else rep_flag,
            length=length, addr=addr)

    # -- classic ALU rows --------------------------------------------------
    row_base = byte & 0xF8
    row_form = byte & 0x07
    if row_base in ALU_ROW_BY_BASE and row_form in (1, 3, 5):
        op = ALU_ROW_BY_BASE[row_base]
        if row_form == 1:
            reg_field, rm = _decode_modrm(cursor, width)
            return done(op, (rm, RegOperand(Reg(reg_field))))
        if row_form == 3:
            reg_field, rm = _decode_modrm(cursor, width)
            return done(op, (RegOperand(Reg(reg_field)), rm))
        return done(op, (RegOperand(Reg.EAX), _imm(cursor, width)))

    if 0x40 <= byte <= 0x47:
        return done(Op.INC, (RegOperand(Reg(byte - 0x40)),))
    if 0x48 <= byte <= 0x4F:
        return done(Op.DEC, (RegOperand(Reg(byte - 0x48)),))
    if 0x50 <= byte <= 0x57:
        return done(Op.PUSH, (RegOperand(Reg(byte - 0x50)),))
    if 0x58 <= byte <= 0x5F:
        return done(Op.POP, (RegOperand(Reg(byte - 0x58)),))
    if byte == 0x68:
        return done(Op.PUSH, (_imm(cursor, 32),))
    if byte == 0x6A:
        return done(Op.PUSH, (_sext_imm8(cursor, 32),))
    if byte in (0x69, 0x6B):
        reg_field, rm = _decode_modrm(cursor, width)
        imm = (_imm(cursor, width) if byte == 0x69
               else _sext_imm8(cursor, width))
        return done(Op.IMUL, (RegOperand(Reg(reg_field)), rm, imm))
    if 0x70 <= byte <= 0x7F:
        rel = cursor.i8()
        return done(Op.JCC, cond=_cond(byte - 0x70),
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte in (0x81, 0x83):
        reg_field, rm = _decode_modrm(cursor, width)
        op = GROUP1_TO_OP[reg_field]
        imm = (_imm(cursor, width) if byte == 0x81
               else _sext_imm8(cursor, width))
        return done(op, (rm, imm))
    if byte == 0x85:
        reg_field, rm = _decode_modrm(cursor, width)
        return done(Op.TEST, (rm, RegOperand(Reg(reg_field))))
    if byte == 0x87:
        reg_field, rm = _decode_modrm(cursor, width)
        return done(Op.XCHG, (rm, RegOperand(Reg(reg_field))))
    if byte == 0x89:
        reg_field, rm = _decode_modrm(cursor, width)
        return done(Op.MOV, (rm, RegOperand(Reg(reg_field))))
    if byte == 0x8B:
        reg_field, rm = _decode_modrm(cursor, width)
        return done(Op.MOV, (RegOperand(Reg(reg_field)), rm))
    if byte == 0x8D:
        reg_field, rm = _decode_modrm(cursor, width)
        if not isinstance(rm, MemOperand):
            raise DecodeError("LEA requires a memory operand")
        return done(Op.LEA, (RegOperand(Reg(reg_field)), rm))
    if byte == 0x90:
        return done(Op.NOP)
    if byte == 0xA5:
        return done(Op.MOVS)
    if byte == 0xAB:
        return done(Op.STOS)
    if byte == 0xAD:
        return done(Op.LODS)
    if 0xB8 <= byte <= 0xBF:
        return done(Op.MOV, (RegOperand(Reg(byte - 0xB8)),
                             _imm(cursor, width)))
    if byte in (0xC1, 0xD1, 0xD3):
        reg_field, rm = _decode_modrm(cursor, width)
        if reg_field not in GROUP2_TO_OP:
            raise DecodeError(f"invalid shift selector {reg_field}")
        op = GROUP2_TO_OP[reg_field]
        if byte == 0xC1:
            count: "ImmOperand | RegOperand" = ImmOperand(cursor.imm8(), 8)
        elif byte == 0xD1:
            count = ImmOperand(1, 8)
        else:
            count = RegOperand(Reg.ECX)
        return done(op, (rm, count))
    if byte == 0xC2:
        return done(Op.RET, (ImmOperand(cursor.u16(), 16),))
    if byte == 0xC3:
        return done(Op.RET)
    if byte == 0xC7:
        reg_field, rm = _decode_modrm(cursor, width)
        if reg_field != 0:
            raise DecodeError("invalid 0xC7 selector")
        return done(Op.MOV, (rm, _imm(cursor, width)))
    if byte == 0xCD:
        return done(Op.INT, (ImmOperand(cursor.imm8(), 8),))
    if byte == 0xE2:
        rel = cursor.i8()
        return done(Op.LOOP,
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte == 0xE3:
        rel = cursor.i8()
        return done(Op.JECXZ,
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte == 0xE8:
        rel = cursor.i32()
        return done(Op.CALL,
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte == 0xE9:
        rel = cursor.i32()
        return done(Op.JMP,
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte == 0xEB:
        rel = cursor.i8()
        return done(Op.JMP,
                    target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
    if byte == 0xF4:
        return done(Op.HLT)
    if byte == 0xF7:
        reg_field, rm = _decode_modrm(cursor, width)
        if reg_field == 0:
            return done(Op.TEST, (rm, _imm(cursor, width)))
        if reg_field in GROUP3_TO_OP:
            return done(GROUP3_TO_OP[reg_field], (rm,))
        raise DecodeError(f"invalid 0xF7 selector {reg_field}")
    if byte == 0xFF:
        reg_field, rm = _decode_modrm(cursor, width)
        if reg_field == Group5.INC:
            return done(Op.INC, (rm,))
        if reg_field == Group5.DEC:
            return done(Op.DEC, (rm,))
        if reg_field == Group5.CALL:
            return done(Op.CALL, (rm,))
        if reg_field == Group5.JMP:
            return done(Op.JMP, (rm,))
        if reg_field == Group5.PUSH:
            return done(Op.PUSH, (rm,))
        raise DecodeError(f"invalid 0xFF selector {reg_field}")

    # -- two-byte opcodes ----------------------------------------------------
    if byte == TWO_BYTE_ESCAPE:
        second = cursor.u8()
        if 0x40 <= second <= 0x4F:
            reg_field, rm = _decode_modrm(cursor, width)
            return done(Op.CMOV, (RegOperand(Reg(reg_field)), rm),
                        cond=_cond(second - 0x40))
        if 0x80 <= second <= 0x8F:
            rel = cursor.i32()
            return done(Op.JCC, cond=_cond(second - 0x80),
                        target=(addr + cursor.consumed + rel) & 0xFFFFFFFF)
        if second == 0xA2:
            return done(Op.CPUID)
        if second == 0xAF:
            reg_field, rm = _decode_modrm(cursor, width)
            return done(Op.IMUL, (RegOperand(Reg(reg_field)), rm))
        if second in (0xB6, 0xB7, 0xBE, 0xBF):
            size = 8 if second in (0xB6, 0xBE) else 16
            reg_field, rm = _decode_modrm(cursor, size)
            if not isinstance(rm, MemOperand):
                raise DecodeError("MOVZX/MOVSX source must be memory "
                                  "in x86lite")
            op = Op.MOVZX if second in (0xB6, 0xB7) else Op.MOVSX
            return done(op, (RegOperand(Reg(reg_field)), rm), op_width=32)
        raise DecodeError(f"invalid two-byte opcode 0x0F {second:#04x}")

    raise DecodeError(f"invalid opcode {byte:#04x}")


def decode_at(memory, addr: int) -> Instruction:
    """Decode one instruction directly from an :class:`AddressSpace`."""
    window = memory.read(addr, MAX_INSTRUCTION_LENGTH)
    return decode(window, addr=addr)
