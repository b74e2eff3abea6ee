"""Decoded-instruction representation for x86lite.

A decoded :class:`Instruction` is the common currency between the decoder,
the interpreter, the cracker (x86lite → micro-ops), and the hardware-assist
models.  It is deliberately explicit: operation, operand width, operands,
condition code, REP prefix, byte length and address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.isa.x86lite.opcodes import (
    COMPLEX_OPS,
    CONDITIONAL_OPS,
    CONTROL_TRANSFER_OPS,
    FLAG_READING_OPS,
    FLAG_WRITING_OPS,
    Op,
)
from repro.isa.x86lite.registers import REG16_BY_NAME, Cond, Reg

#: Maximum encoded length of an x86lite instruction, in bytes.  (Real x86
#: allows up to 15/17; our subset tops out below 16, which is what lets the
#: XLTx86 assist fetch any instruction into one 128-bit F register.)
MAX_INSTRUCTION_LENGTH = 16


@dataclass(frozen=True)
class RegOperand:
    """A general-purpose register operand."""

    reg: Reg

    def __str__(self) -> str:
        return self.reg.name.lower()


@dataclass(frozen=True)
class ImmOperand:
    """An immediate operand (value stored unsigned, masked to ``bits``)."""

    value: int
    bits: int = 32

    def __str__(self) -> str:
        return f"{self.value:#x}"


@dataclass(frozen=True)
class MemOperand:
    """A memory operand: ``[base + index*scale + disp]``.

    ``size`` is the access width in bits (8/16/32); MOVZX/MOVSX use narrow
    sizes, everything else follows the instruction's operand width.
    """

    base: Optional[Reg] = None
    index: Optional[Reg] = None
    scale: int = 1
    disp: int = 0
    size: int = 32

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")
        if self.index is Reg.ESP:
            raise ValueError("ESP cannot be an index register")

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(self.base.name.lower())
        if self.index is not None:
            term = self.index.name.lower()
            if self.scale != 1 or self.base is None:   # not a base
                term += f"*{self.scale}"
            parts.append(term)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}" if self.disp >= 0
                         else f"-{-self.disp:#x}")
        return "[" + "+".join(parts) + "]"


Operand = Union[RegOperand, ImmOperand, MemOperand]

#: register -> its name in a 16-bit (``0x66``-prefixed) instruction
_REG16_NAMES = {reg: name for name, reg in REG16_BY_NAME.items()}

#: a memory operand's access width -> the assembler's size keyword
_SIZE_KEYWORDS = {8: "byte ", 16: "word ", 32: ""}


@dataclass(frozen=True)
class Instruction:
    """One decoded x86lite instruction.

    ``target`` is the absolute branch target for direct control transfers
    (JMP/JCC/CALL with relative displacements); indirect transfers leave it
    ``None`` and carry their operand instead.
    """

    op: Op
    operands: Tuple[Operand, ...] = ()
    width: int = 32
    cond: Optional[Cond] = None
    target: Optional[int] = None
    rep: bool = False
    length: int = 0
    addr: int = 0

    # -- classification ---------------------------------------------------

    @property
    def is_control_transfer(self) -> bool:
        return self.op in CONTROL_TRANSFER_OPS

    @property
    def is_conditional(self) -> bool:
        return self.op in CONDITIONAL_OPS

    @property
    def is_complex(self) -> bool:
        """True if the hardware assist decoders punt this to software.

        REP-prefixed string instructions are complex (data-dependent
        iteration count), as are the microcoded ops in ``COMPLEX_OPS``.
        """
        return self.rep or self.op in COMPLEX_OPS

    @property
    def writes_flags(self) -> bool:
        return self.op in FLAG_WRITING_OPS

    @property
    def reads_flags(self) -> bool:
        return self.op in FLAG_READING_OPS

    @property
    def next_addr(self) -> int:
        return self.addr + self.length

    # -- printing ----------------------------------------------------------

    def mnemonic(self) -> str:
        if self.op is Op.JCC:
            return f"j{self.cond.name.lower()}"
        if self.op is Op.CMOV:
            return f"cmov{self.cond.name.lower()}"
        name = self.op.value
        return f"rep {name}" if self.rep else name

    def operand_text(self, operand: Operand) -> str:
        """``operand`` as the assembler reads it back in this
        instruction: a register by the name of the instruction's width,
        a narrow memory operand with its size keyword."""
        if isinstance(operand, RegOperand) and self.width == 16:
            return _REG16_NAMES[operand.reg]
        if isinstance(operand, MemOperand):
            return _SIZE_KEYWORDS[operand.size] + str(operand)
        return str(operand)

    def __str__(self) -> str:
        parts = [self.mnemonic()]
        if self.target is not None:
            parts.append(f"{self.target:#x}")
        elif self.operands:
            parts.append(", ".join([self.operand_text(operand)
                                    for operand in self.operands]))
        return " ".join(parts)
