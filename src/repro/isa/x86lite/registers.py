"""Architected registers and condition codes of the x86lite ISA.

x86lite keeps the IA-32 general-purpose register file (eight 32-bit GPRs
with the conventional encoding order) and the four arithmetic flags that the
instruction subset needs: CF, ZF, SF and OF.  PF and AF are intentionally
omitted — no instruction in the subset consumes them — and the omission is
documented here rather than silently approximated.
"""

from __future__ import annotations

import enum


class Reg(enum.IntEnum):
    """General-purpose registers, in IA-32 encoding order."""

    EAX = 0
    ECX = 1
    EDX = 2
    EBX = 3
    ESP = 4
    EBP = 5
    ESI = 6
    EDI = 7


#: Number of architected GPRs.
GPR_COUNT = 8

#: Lookup from lower-case assembly name to register.
REG_BY_NAME = {reg.name.lower(): reg for reg in Reg}

#: 16-bit register names (used with the operand-size prefix).
REG16_BY_NAME = {
    "ax": Reg.EAX, "cx": Reg.ECX, "dx": Reg.EDX, "bx": Reg.EBX,
    "sp": Reg.ESP, "bp": Reg.EBP, "si": Reg.ESI, "di": Reg.EDI,
}


class Cond(enum.IntEnum):
    """Condition codes (``tttn`` encodings shared by Jcc/CMOVcc)."""

    O = 0x0
    NO = 0x1
    B = 0x2      # below (CF)
    NB = 0x3     # not below
    E = 0x4      # equal (ZF)
    NE = 0x5
    BE = 0x6     # below or equal (CF or ZF)
    NBE = 0x7    # above
    S = 0x8      # sign
    NS = 0x9
    L = 0xC      # less (SF != OF)
    NL = 0xD     # greater or equal
    LE = 0xE     # less or equal
    NLE = 0xF    # greater


#: Assembly aliases for each condition code.
COND_BY_NAME = {
    "o": Cond.O, "no": Cond.NO,
    "b": Cond.B, "c": Cond.B, "nae": Cond.B,
    "nb": Cond.NB, "nc": Cond.NB, "ae": Cond.NB,
    "e": Cond.E, "z": Cond.E,
    "ne": Cond.NE, "nz": Cond.NE,
    "be": Cond.BE, "na": Cond.BE,
    "nbe": Cond.NBE, "a": Cond.NBE,
    "s": Cond.S, "ns": Cond.NS,
    "l": Cond.L, "nge": Cond.L,
    "nl": Cond.NL, "ge": Cond.NL,
    "le": Cond.LE, "ng": Cond.LE,
    "nle": Cond.NLE, "g": Cond.NLE,
}


def cond_holds(cond: Cond, cf: bool, zf: bool, sf: bool, of: bool) -> bool:
    """Evaluate a condition code against flag values."""
    base = cond & ~1
    if base == Cond.O:
        result = of
    elif base == Cond.B:
        result = cf
    elif base == Cond.E:
        result = zf
    elif base == Cond.BE:
        result = cf or zf
    elif base == Cond.S:
        result = sf
    elif base == Cond.L:
        result = sf != of
    elif base == Cond.LE:
        result = zf or (sf != of)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown condition {cond!r}")
    return not result if cond & 1 else result
