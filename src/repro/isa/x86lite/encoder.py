"""x86lite instruction encoder (assembler backend).

An instruction is encoded in the first of its op's ``opcodes.FORMS`` rows
whose layout takes its operands: optional prefixes, one- or two-byte
opcode, ModRM/SIB, displacement, immediate.  The rows are in order of
preference, so the encoder always emits a canonical form (shortest
applicable immediate/displacement), which the decoder reproduces --
giving an encode/decode round-trip that the property tests rely on.
"""

from __future__ import annotations

import struct
from itertools import product
from typing import Dict, List, Optional, Union

from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import (
    FORMS,
    PREFIX_OPERAND_SIZE,
    PREFIX_REP,
    Form,
    Op,
)
from repro.isa.x86lite.registers import Reg


class EncodeError(Exception):
    """Raised when an instruction has no encoding in the x86lite subset."""


def _i8(value: int) -> bytes:
    return struct.pack("<b", value)


def _u8(value: int) -> bytes:
    return struct.pack("<B", value & 0xFF)


def _i32(value: int) -> bytes:
    return struct.pack("<i", ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000)


def _fits_i8(value: int, bits: int) -> bool:
    """Whether ``value``, read as a ``bits``-bit integer, is an imm8."""
    value &= (1 << bits) - 1
    return value < 0x80 or value >= (1 << bits) - 0x80


def encode_modrm(reg_field: int, rm: Union[RegOperand, MemOperand]) -> bytes:
    """Encode the ModRM byte (and SIB/displacement) for one r/m operand."""
    if isinstance(rm, RegOperand):
        return _u8(0xC0 | (reg_field << 3) | rm.reg)

    base, index, scale, disp = rm.base, rm.index, rm.scale, rm.disp
    scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[scale]

    if base is None and index is None:
        # absolute disp32: mod=00 rm=101
        return _u8((reg_field << 3) | 0b101) + _i32(disp)

    needs_sib = index is not None or base is Reg.ESP or base is None

    if base is None:
        # index-only form requires SIB with "no base" (mod=00, base=101)
        modrm = _u8((reg_field << 3) | 0b100)
        sib = _u8((scale_bits << 6) | (index << 3) | 0b101)
        return modrm + sib + _i32(disp)

    # choose mod by displacement size; EBP base cannot use mod=00
    if disp == 0 and base is not Reg.EBP:
        mod, disp_bytes = 0b00, b""
    elif -128 <= disp <= 127:
        mod, disp_bytes = 0b01, _i8(disp)
    else:
        mod, disp_bytes = 0b10, _i32(disp)

    if needs_sib:
        modrm = _u8((mod << 6) | (reg_field << 3) | 0b100)
        index_bits = index if index is not None else 0b100
        sib = _u8((scale_bits << 6) | (index_bits << 3) | base)
        return modrm + sib + disp_bytes
    return _u8((mod << 6) | (reg_field << 3) | base) + disp_bytes


#: the operand kinds each layout letter takes (the target a J letter
#: encodes is not an operand)
_KINDS = {"E": (RegOperand, MemOperand), "Jb": (), "Jz": ()}
_KINDS.update(dict.fromkeys(("G", "Z", "A", "CL"), (RegOperand,)))
_KINDS.update(dict.fromkeys(("M", "Mb", "Mw"), (MemOperand,)))
_KINDS.update(dict.fromkeys(("1", "Ib", "Ibd", "Iu", "Iw", "Id", "Iz"),
                            (ImmOperand,)))
#: the register A and CL stand for; the memory size M, Mb and Mw take
_IMPLIED = {"A": Reg.EAX, "CL": Reg.ECX}
_MEMORY = {"M": None, "Mb": 8, "Mw": 16}
#: bytes of an unsigned immediate (Iz: by the operand size)
_IMMEDIATE_BYTES = {"Iu": 1, "Iw": 2, "Id": 4}


def _candidates(force_long_branch: bool) -> Dict[tuple, List[Form]]:
    """``(op, operand kinds...)`` -> the op's forms whose letters take
    operands of those kinds, in order of preference; under
    ``force_long_branch`` without the rel8 form of an op that has a
    rel32 one."""
    table: Dict[tuple, List[Form]] = {}
    for op in Op:
        forms = [form for form in FORMS if form.op is op]
        if force_long_branch and any(form.layout == ("Jz",)
                                     for form in forms):
            forms = [form for form in forms if form.layout != ("Jb",)]
        for form in forms:
            for kinds in product(*(_KINDS[letter] for letter in form.layout
                                   if _KINDS[letter])):
                table.setdefault((op, *kinds), []).append(form)
    return table


_CANDIDATES = {False: _candidates(False), True: _candidates(True)}


def encode(instr: Instruction, addr: Optional[int] = None,
           force_long_branch: bool = False) -> bytes:
    """Encode ``instr`` to bytes.

    ``addr`` is the address the encoding will be placed at (needed for
    PC-relative control transfers; defaults to ``instr.addr``).
    ``force_long_branch`` pins rel32 forms, which the two-pass assembler
    uses to keep pass-1 sizing decisions stable.
    """
    if addr is None:
        addr = instr.addr
    prefix = b""
    if instr.rep:
        prefix += _u8(PREFIX_REP)
    if instr.width == 16:
        prefix += _u8(PREFIX_OPERAND_SIZE)
    for form in _CANDIDATES[force_long_branch].get(
            (instr.op, *map(type, instr.operands)), ()):
        code = _encode_as(form, instr, prefix, addr)
        if code is not None:
            return code
    raise EncodeError(f"{instr.op.value} has no encoding with these "
                      f"operands")


def _encode_as(form: Form, instr: Instruction, prefix: bytes,
               addr: int) -> Optional[bytes]:
    """``instr`` encoded in ``form``, whose letters take its operands'
    kinds; None if their values (or its target or condition) do not
    fit it."""
    opcode = form.opcode
    if form.ext == "+cc":
        if instr.cond is None:
            return None
        opcode = opcode[:-1] + _u8(opcode[-1] + instr.cond)
    layout = form.layout
    if layout and layout[0] in ("Jb", "Jz"):
        if instr.target is None:
            return None
        size = 1 if layout[0] == "Jb" else 4
        rel = instr.target - (addr + len(prefix) + len(opcode) + size)
        if size == 4:
            return prefix + opcode + _i32(rel)
        return prefix + opcode + _i8(rel) if -128 <= rel <= 127 else None
    bits = 16 if instr.width == 16 else 32
    reg_field = form.ext if type(form.ext) is int else 0
    rm: "RegOperand | MemOperand | None" = None
    tail = b""
    for letter, operand in zip(layout, instr.operands):
        if letter == "E":
            rm = operand
        elif letter == "G":
            reg_field = operand.reg
        elif letter == "Z":
            opcode = opcode[:-1] + _u8(opcode[-1] + operand.reg)
        elif letter in _IMPLIED:
            if operand.reg != _IMPLIED[letter]:
                return None
        elif letter in _MEMORY:
            if _MEMORY[letter] not in (None, operand.size):
                return None
            rm = operand
        elif letter == "1":
            if operand.value != 1:
                return None
        elif letter in ("Ib", "Ibd"):
            if not _fits_i8(operand.value, bits if letter == "Ib" else 32):
                return None
            tail += _u8(operand.value)
        else:
            size = _IMMEDIATE_BYTES.get(letter, bits // 8)
            tail += (operand.value & ((1 << 8 * size) - 1)).to_bytes(
                size, "little")
    if rm is not None:
        tail = encode_modrm(reg_field, rm) + tail
    return prefix + opcode + tail
