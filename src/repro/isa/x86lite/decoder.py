"""x86lite instruction decoder.

This is the reference implementation of the "first-level (vertical) decode"
that appears three times in the paper's system: in the software BBT (where
it costs ~90 of the 105 native instructions per x86 instruction), in the
XLTx86 backend functional unit, and in the first level of the dual-mode
frontend decoder.  The first two reuse this module, so they are decode-
equivalent by construction; the third is a timing-model mode only.

It is one walk over ``opcodes.FORMS``: prefixes, the opcode's row, its
ModRM (and ``/reg`` selector) if the row has one, then each operand by
its layout letter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import (
    FORMS,
    PREFIX_OPERAND_SIZE,
    PREFIX_REP,
    Form,
)
from repro.isa.x86lite.registers import Cond, Reg


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

    def i8(self) -> int:
        return self.value(1, True)

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


class _Opcode:
    """What one opcode (its ``+r``/``+cc`` bits included) decodes as:
    ``forms[reg]`` by the ModRM reg field (the same form eight times
    where there is no ``/reg`` selector; ``forms[0]`` without a ModRM),
    the opcode's ``low`` bits, and the ModRM r/m's memory size (None: the
    operand size)."""

    __slots__ = ("forms", "low", "modrm", "rm_size")

    def __init__(self, form: Form, low: int) -> None:
        rm = [letter for letter in form.layout
              if letter in ("E", "M", "Mb", "Mw")]
        self.forms: List[Optional[Form]] = [None] * 8
        self.low = low
        self.modrm = bool(rm)
        self.rm_size = {"Mb": 8, "Mw": 16}.get(rm[0]) if rm else None


def _opcodes() -> Dict[int, _Opcode]:
    """Opcode (a two-byte one as ``first << 8 | second``) -> what it
    decodes as, for every opcode ``FORMS`` names."""
    table: Dict[int, _Opcode] = {}
    for form in FORMS:
        for low in {"+r": range(8), "+cc": range(16)}.get(form.ext, (0,)):
            entry = table.setdefault(int.from_bytes(form.opcode, "big")
                                     + low, _Opcode(form, low))
            if type(form.ext) is int:
                entry.forms[form.ext] = form
            else:
                entry.forms = [form] * 8
    return table


_OPCODES = _opcodes()

#: the first bytes of the two-byte opcodes
_ESCAPES = frozenset(form.opcode[0] for form in FORMS
                     if len(form.opcode) == 2)

#: register operand by number (operands are immutable: one of each)
_REGISTERS = tuple(RegOperand(reg) for reg in Reg)
#: the operands the A, CL and 1 letters stand for
_IMPLIED = {"A": _REGISTERS[Reg.EAX], "CL": _REGISTERS[Reg.ECX],
            "1": ImmOperand(1, 8)}

#: immediate letter -> (bytes, signed, bits); 0 bytes / bits: the
#: operand size
_IMMEDIATES = {"Ib": (1, True, 0), "Ibd": (1, True, 32),
               "Iu": (1, False, 8), "Iw": (2, False, 16),
               "Id": (4, False, 32), "Iz": (0, False, 0)}


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
    key = byte
    if byte in _ESCAPES:
        key = byte << 8 | cursor.u8()
    entry = _OPCODES.get(key)
    if entry is None:
        raise DecodeError(f"invalid opcode {key:#04x}")
    form = entry.forms[0]
    if entry.modrm:
        rm_size = entry.rm_size
        reg_field, rm = _decode_modrm(cursor, rm_size or width)
        if rm_size:
            width = 32
        form = entry.forms[reg_field]
        if form is None:
            raise DecodeError(f"invalid selector {reg_field} of opcode "
                              f"{key:#04x}")
    cond = _cond(entry.low) if form.ext == "+cc" else None
    operands: "List[Union[RegOperand, ImmOperand, MemOperand]]" = []
    target = None
    for letter in form.layout:
        if letter == "E":
            operands.append(rm)
        elif letter == "G":
            operands.append(_REGISTERS[reg_field])
        elif letter in _IMMEDIATES:
            size, signed, bits = _IMMEDIATES[letter]
            bits = bits or width
            value = cursor.value(size or bits // 8, signed)
            operands.append(ImmOperand(
                value & ((1 << bits) - 1) if signed else value, bits))
        elif letter == "Z":
            operands.append(_REGISTERS[entry.low])
        elif letter in ("Jb", "Jz"):
            rel = cursor.value(1 if letter == "Jb" else 4, True)
            target = (addr + cursor.consumed + rel) & 0xFFFFFFFF
        elif letter in _IMPLIED:
            operands.append(_IMPLIED[letter])
        else:   # M, Mb, Mw
            if not isinstance(rm, MemOperand):
                raise DecodeError(f"{form.op.name} requires a memory "
                                  f"operand")
            operands.append(rm)
    length = cursor.consumed
    if length > MAX_INSTRUCTION_LENGTH:
        raise DecodeError(f"instruction longer than "
                          f"{MAX_INSTRUCTION_LENGTH} bytes")
    return Instruction(op=form.op, operands=tuple(operands), width=width,
                       cond=cond, target=target, rep=rep, length=length,
                       addr=addr)


def decode_at(memory, addr: int) -> Instruction:
    """Decode one instruction directly from an :class:`AddressSpace`."""
    window = memory.read(addr, MAX_INSTRUCTION_LENGTH)
    return decode(window, addr=addr)
