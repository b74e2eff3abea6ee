"""The MicroOp record and its structural properties.

A :class:`MicroOp` is the unit of the implementation ISA.  Encoded length
is 2 bytes (16-bit format, registers R0–R15 only) or 4 bytes (32-bit
format).  The ``fused`` bit marks the head of a macro-op pair; the machine
and the timing model treat the head plus its successor as one issue unit.

``x86_addr`` is *metadata*, not architecture: it records which architected
instruction a micro-op was cracked from.  The translators persist it in
side tables for precise-state reconstruction; it never reaches the encoded
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.isa.fusible.opcodes import (
    DEST_NONE,
    DEST_RD_NZ,
    I_FORM_OPS,
    LOAD_OPS,
    OP_INFO,
    R_FORM_OPS,
    RR_FORM_OPS,
    STORE_OPS,
    UOp,
)
from repro.isa.fusible.registers import R_ZERO, reg_name
from repro.isa.x86lite.registers import Cond


@dataclass(frozen=True, init=False, slots=True)
class MicroOp:
    """One implementation-ISA micro-op."""

    op: UOp
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    cond: Optional[Cond] = None
    fused: bool = False
    setflags: bool = False
    x86_addr: Optional[int] = None   # metadata (side table), never encoded

    def __init__(self, op: UOp, rd: int = 0, rs1: int = 0, rs2: int = 0,
                 imm: int = 0, cond: Optional[Cond] = None,
                 fused: bool = False, setflags: bool = False,
                 x86_addr: Optional[int] = None) -> None:
        # Every decode, crack and ``replace`` lands here.  The generated
        # frozen ``__init__`` makes nine ``object.__setattr__`` calls (a
        # name lookup each); the slot descriptors store the same nine
        # fields directly.  ``__setattr__`` stays the frozen one, so an
        # instance is still immutable once built.
        _set_op(self, op)
        _set_rd(self, rd)
        _set_rs1(self, rs1)
        _set_rs2(self, rs2)
        _set_imm(self, imm)
        _set_cond(self, cond)
        _set_fused(self, fused)
        _set_setflags(self, setflags)
        _set_x86_addr(self, x86_addr)

    # -- structure (every per-opcode fact comes from OP_INFO) -----------------

    @property
    def is_short(self) -> bool:
        return OP_INFO[self.op].length == 2

    @property
    def length(self) -> int:
        """Encoded length in bytes."""
        return OP_INFO[self.op].length

    @property
    def is_branch(self) -> bool:
        return OP_INFO[self.op].branch

    @property
    def is_load(self) -> bool:
        return OP_INFO[self.op].load

    @property
    def is_store(self) -> bool:
        return OP_INFO[self.op].store

    @property
    def reads_flags(self) -> bool:
        return OP_INFO[self.op].reads_flags

    @property
    def writes_flags(self) -> bool:
        """Compare/test forms set the flags with or without the .f bit."""
        return self.setflags or OP_INFO[self.op].always_flags

    def dest(self) -> Optional[int]:
        """The general register written, or None."""
        rule = OP_INFO[self.op].dest
        if rule == DEST_NONE or (rule == DEST_RD_NZ and self.rd == R_ZERO):
            return None
        return self.rd

    def sources(self) -> List[int]:
        """General registers read (R31/zero excluded)."""
        regs = [getattr(self, field) for field in OP_INFO[self.op].sources]
        return [reg for reg in regs if reg != R_ZERO]

    def with_fused(self, fused: bool = True) -> "MicroOp":
        return MicroOp(self.op, self.rd, self.rs1, self.rs2, self.imm,
                       self.cond, fused, self.setflags, self.x86_addr)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        name = self.op.value + (".f" if self.setflags else "")
        head = "+" if self.fused else " "
        op = self.op
        if op in (UOp.NOP, UOp.NOP2, UOp.HALT):
            body = name
        elif op is UOp.BC:
            body = f"bc.{self.cond.name.lower()} {self.imm:+d}"
        elif op is UOp.SEL:
            body = (f"sel.{self.cond.name.lower()} {reg_name(self.rd)}, "
                    f"{reg_name(self.rs1)}")
        elif op is UOp.JMP:
            body = f"jmp {self.imm:+d}"
        elif op in (UOp.JR, UOp.VMEXIT, UOp.WRFLG):
            body = f"{name} {reg_name(self.rs1)}"
        elif op is UOp.VMCALL:
            body = f"vmcall #{self.imm}"
        elif op in (UOp.RDFLG, UOp.LDCSR):
            body = f"{name} {reg_name(self.rd)}"
        elif op in (UOp.JCSRC, UOp.JCSRT):
            body = f"{name} {self.imm:+d}"
        elif op is UOp.XLTX86:
            body = f"xltx86 f{self.rd}, f{self.rs1}"
        elif op in (UOp.LDF, UOp.STF):
            body = f"{name} f{self.rd}, {self.imm}({reg_name(self.rs1)})"
        elif op in LOAD_OPS or op in STORE_OPS:
            body = f"{name} {reg_name(self.rd)}, " \
                   f"{self.imm}({reg_name(self.rs1)})"
        elif op is UOp.LUI:
            body = f"lui {reg_name(self.rd)}, {self.imm:#x}"
        elif op in I_FORM_OPS:
            body = f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}, " \
                   f"{self.imm}"
        elif op in RR_FORM_OPS:
            body = f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}"
        elif op in R_FORM_OPS:
            body = f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}, " \
                   f"{reg_name(self.rs2)}"
        elif op is UOp.ADDI2:
            body = f"{name} {reg_name(self.rd)}, {self.imm}"
        elif op is UOp.MOV2:
            body = f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}"
        else:  # remaining 16-bit two-register forms
            body = f"{name} {reg_name(self.rd)}, {reg_name(self.rs1)}"
        return head + body


(_set_op, _set_rd, _set_rs1, _set_rs2, _set_imm, _set_cond, _set_fused,
 _set_setflags, _set_x86_addr) = (getattr(MicroOp, name).__set__
                                  for name in MicroOp.__slots__)
