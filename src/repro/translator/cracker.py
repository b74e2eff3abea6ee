"""Cracking: decompose x86lite instructions into fusible micro-ops.

This is the common core shared by every translation path in the system —
the software BBT, the SBT (which cracks and then optimizes) and the XLTx86
backend functional unit all reach :func:`crack` through the instruction-
shape templates.  That sharing is the repository's analogue of the
paper's observation that they are "the same decode/crack work" relocated
to different places.

Architected GPR *r* lives in native register *r* (R0..R7).  Temporaries
R8..R10 are used inside a single instruction's cracked sequence and carry
no state between architected instructions.

Complex instructions (REP strings, DIV/IDIV, INT, HLT, CPUID, and any
16-bit-operand form) are *not* cracked; translators emit a ``VMCALL
INTERP_ONE`` so VMM software emulates them precisely — the software escape
hatch that keeps the hardware assists simple (Section 4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.isa.fusible.encoding import imm13_in_range
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.fusible.registers import (
    R_EXIT_TARGET,
    R_ZERO,
)
from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MemOperand,
    Operand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Reg

# Per-instruction temporaries (all reachable from 16-bit micro-ops).
T0 = 8    # address temp
T1 = 9    # data temp
T2 = 10   # secondary data temp

#: x86lite ops the cracker handles directly (everything else is complex).
_SHIFT_UOPS = {Op.SHL: (UOp.SHL, UOp.SHLI), Op.SHR: (UOp.SHR, UOp.SHRI),
               Op.SAR: (UOp.SAR, UOp.SARI)}

_SCALE_SHIFT = {1: 0, 2: 1, 4: 2, 8: 3}

MASK32 = 0xFFFFFFFF


def _signed32(value: int) -> int:
    """An unsigned 32-bit ``value`` read as signed -- by arithmetic, not
    a branch on the sign bit: under ``translator/templates.py`` an
    instruction's values are ``Sym``s, and a branch would be a guard."""
    return (value ^ 0x80000000) - 0x80000000


class CrackError(Exception):
    """Raised on instructions the cracker cannot decompose."""


@dataclass
class CrackResult:
    """Outcome of cracking one architected instruction.

    ``uops`` is the micro-op body.  For control transfers (``cti`` True)
    the body contains only the *computation* part (e.g. the return-address
    push of a CALL, or target materialization into R29 for indirect
    transfers); the translator appends the block-exit stub.  For complex
    instructions (``cmplx`` True) the body is empty and translators must
    emit a VMM callout instead.
    """

    instr: Instruction
    uops: List[MicroOp] = field(default_factory=list)
    cmplx: bool = False
    cti: bool = False

    @property
    def uop_count(self) -> int:
        return len(self.uops)

    @property
    def byte_count(self) -> int:
        return sum(uop.length for uop in self.uops)


class _Emitter:
    """Accumulates micro-ops tagged with the architected address."""

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.uops: List[MicroOp] = []

    def emit(self, op: UOp, **kwargs) -> None:
        self.uops.append(MicroOp(op, x86_addr=self.addr, **kwargs))

    # -- immediate materialization ----------------------------------------

    def load_imm(self, rd: int, value: int) -> None:
        """Load a 32-bit constant into ``rd`` (1-2 micro-ops)."""
        value &= MASK32
        signed = _signed32(value)
        if imm13_in_range(UOp.ADDI, signed):
            self.emit(UOp.ADDI, rd=rd, rs1=R_ZERO, imm=signed)
            return
        self.emit(UOp.LUI, rd=rd, imm=value >> 13)
        low = value & 0x1FFF
        if low:
            self.emit(UOp.ORI, rd=rd, rs1=rd, imm=low)

    # -- addressing ------------------------------------------------------------

    def address(self, mem: MemOperand, temp: int = T0) -> Tuple[int, int]:
        """Materialize a memory operand's address.

        Returns ``(base_reg, disp13)`` such that the access is
        ``[base_reg + disp13]``; emits any micro-ops needed.
        """
        reg: int
        if mem.index is not None:
            shift = _SCALE_SHIFT[mem.scale]
            if shift:
                self.emit(UOp.SHLI, rd=temp, rs1=mem.index, imm=shift)
            else:
                self.emit(UOp.MOV2, rd=temp, rs1=mem.index)
            if mem.base is not None:
                self.emit(UOp.ADD2, rd=temp, rs1=mem.base)
            reg = temp
        elif mem.base is not None:
            reg = int(mem.base)
        else:
            reg = R_ZERO
        if imm13_in_range(UOp.LDW, mem.disp):
            return reg, mem.disp
        # large displacement: fold it into the address register
        if reg == temp:
            extra = T1 if temp == T0 else T2
            self.load_imm(extra, mem.disp)
            self.emit(UOp.ADD2, rd=temp, rs1=extra)
            return temp, 0
        self.load_imm(temp, mem.disp)
        if reg != R_ZERO:
            self.emit(UOp.ADD2, rd=temp, rs1=reg)
        return temp, 0

    def load_operand(self, operand: Operand, temp: int,
                     load_op: UOp = UOp.LDW) -> int:
        """Bring an operand's value into a register; returns the register."""
        if isinstance(operand, RegOperand):
            return int(operand.reg)
        if isinstance(operand, ImmOperand):
            self.load_imm(temp, operand.value)
            return temp
        reg, disp = self.address(operand, T0)
        self.emit(load_op, rd=temp, rs1=reg, imm=disp)
        return temp


def is_crackable(instr: Instruction) -> bool:
    """Whether the instruction has a direct micro-op decomposition.

    Mirrors the hardware assists' ``Flag_cmplx`` test: complex ops and all
    16-bit-operand forms are punted to VMM software.
    """
    return not (instr.is_complex or instr.width == 16)


def crack(instr: Instruction) -> CrackResult:
    """Crack one architected instruction into micro-ops."""
    cti = instr.is_control_transfer
    if not is_crackable(instr):
        return CrackResult(instr, cmplx=True, cti=cti)
    rule = _RULES.get(instr.op)
    if rule is None:
        raise CrackError(f"no cracking rule for {instr}")
    emitter = _Emitter(instr.addr)
    rule(instr, emitter)
    return CrackResult(instr, emitter.uops, cti=cti)


# -- the rules, one per architected operation -----------------------------------

def _crack_nop(instr: Instruction, emitter: _Emitter) -> None:
    emitter.emit(UOp.NOP2)


def _crack_mov(instr: Instruction, emitter: _Emitter) -> None:
    dst, src = instr.operands
    if isinstance(dst, RegOperand):
        if isinstance(src, RegOperand):
            emitter.emit(UOp.MOV2, rd=int(dst.reg), rs1=int(src.reg))
        elif isinstance(src, ImmOperand):
            emitter.load_imm(int(dst.reg), src.value)
        else:
            reg, disp = emitter.address(src)
            emitter.emit(UOp.LDW, rd=int(dst.reg), rs1=reg, imm=disp)
        return
    # store forms
    value = emitter.load_operand(src, T1)
    reg, disp = emitter.address(dst)
    emitter.emit(UOp.STW, rd=value, rs1=reg, imm=disp)


_EXTENDING_LOADS = {(Op.MOVZX, 8): UOp.LDBU, (Op.MOVZX, 16): UOp.LDHU,
                    (Op.MOVSX, 8): UOp.LDBS, (Op.MOVSX, 16): UOp.LDHS}


def _crack_extend(instr: Instruction, emitter: _Emitter) -> None:
    dst, src = instr.operands
    reg, disp = emitter.address(src)
    emitter.emit(_EXTENDING_LOADS[instr.op, src.size], rd=int(dst.reg),
                 rs1=reg, imm=disp)


def _crack_lea(instr: Instruction, emitter: _Emitter) -> None:
    dst, src = instr.operands
    rd = int(dst.reg)
    reg, disp = emitter.address(src, temp=T0)
    if disp or reg == R_ZERO:
        emitter.emit(UOp.ADDI, rd=rd, rs1=reg, imm=disp)
    else:
        emitter.emit(UOp.MOV2, rd=rd, rs1=reg)


def _crack_cmov(instr: Instruction, emitter: _Emitter) -> None:
    dst, src = instr.operands
    value = emitter.load_operand(src, T1)
    emitter.emit(UOp.SEL, rd=int(dst.reg), rs1=value, cond=instr.cond)


def _crack_xchg(instr: Instruction, emitter: _Emitter) -> None:
    dst, src = instr.operands
    src_reg = int(src.reg)
    if isinstance(dst, RegOperand):
        emitter.emit(UOp.MOV2, rd=T1, rs1=int(dst.reg))
        emitter.emit(UOp.MOV2, rd=int(dst.reg), rs1=src_reg)
        emitter.emit(UOp.MOV2, rd=src_reg, rs1=T1)
        return
    reg, disp = emitter.address(dst)
    emitter.emit(UOp.LDW, rd=T1, rs1=reg, imm=disp)
    emitter.emit(UOp.STW, rd=src_reg, rs1=reg, imm=disp)
    emitter.emit(UOp.MOV2, rd=src_reg, rs1=T1)


#: op -> (its ``rd, rs1, imm13`` micro-op, whether ``rd`` keeps the result)
_ALU_IMM = {Op.ADD: (UOp.ADDI, True), Op.SUB: (UOp.SUBI, True),
            Op.AND: (UOp.ANDI, True), Op.OR: (UOp.ORI, True),
            Op.XOR: (UOp.XORI, True),
            # compare-with-immediate in one micro-op (rd = zero reg)
            Op.CMP: (UOp.SUBI, False), Op.TEST: (UOp.ANDI, False)}

#: op -> (its two-register micro-op, whether that takes ``.f``)
_ALU_SHORT = {Op.ADD: (UOp.ADD2, True), Op.SUB: (UOp.SUB2, True),
              Op.AND: (UOp.AND2, True), Op.OR: (UOp.OR2, True),
              Op.XOR: (UOp.XOR2, True),
              Op.CMP: (UOp.CMP2, False), Op.TEST: (UOp.TEST2, False)}
_ALU_LONG = {Op.ADC: UOp.ADC, Op.SBB: UOp.SBB}


def _alu(emitter: _Emitter, op: Op, rd: int, value: int) -> None:
    """``rd = rd <op> value`` (flags only, for CMP / TEST)."""
    if op in _ALU_SHORT:
        uop, setflags = _ALU_SHORT[op]
        emitter.emit(uop, rd=rd, rs1=value, setflags=setflags)
    else:
        emitter.emit(_ALU_LONG[op], rd=rd, rs1=rd, rs2=value, setflags=True)


def _crack_alu(instr: Instruction, emitter: _Emitter) -> None:
    """ADD/ADC/SUB/SBB/AND/OR/XOR/CMP/TEST in all operand forms."""
    op = instr.op
    dst, src = instr.operands
    if isinstance(dst, RegOperand):
        rd = int(dst.reg)
        if isinstance(src, ImmOperand) and op in _ALU_IMM:
            imm_op, keeps = _ALU_IMM[op]
            imm = _signed32(src.value) \
                if imm_op in (UOp.ADDI, UOp.SUBI) else src.value
            if imm13_in_range(imm_op, imm):
                emitter.emit(imm_op, rd=rd if keeps else R_ZERO, rs1=rd,
                             imm=imm, setflags=True)
                return
        _alu(emitter, op, rd, emitter.load_operand(src, T1))
        return
    # memory destination: load / op / (store unless compare)
    value = emitter.load_operand(src, T2)
    reg, disp = emitter.address(dst)
    emitter.emit(UOp.LDW, rd=T1, rs1=reg, imm=disp)
    _alu(emitter, op, T1, value)
    if op not in (Op.CMP, Op.TEST):
        emitter.emit(UOp.STW, rd=T1, rs1=reg, imm=disp)


def _rmw(instr: Instruction, emitter: _Emitter, operate) -> None:
    """``operate(register)`` on the destination: in place, or for a
    memory destination load / operate on T1 / store."""
    dst = instr.operands[0]
    if isinstance(dst, RegOperand):
        operate(int(dst.reg))
        return
    reg, disp = emitter.address(dst)
    emitter.emit(UOp.LDW, rd=T1, rs1=reg, imm=disp)
    operate(T1)
    emitter.emit(UOp.STW, rd=T1, rs1=reg, imm=disp)


def _crack_incdec(instr: Instruction, emitter: _Emitter) -> None:
    uop = UOp.INCF if instr.op is Op.INC else UOp.DECF
    _rmw(instr, emitter, lambda reg: emitter.emit(
        uop, rd=reg, rs1=reg, setflags=instr.writes_flags))


def _crack_neg(instr: Instruction, emitter: _Emitter) -> None:
    _rmw(instr, emitter, lambda reg: emitter.emit(
        UOp.SUB, rd=reg, rs1=R_ZERO, rs2=reg, setflags=True))


def _crack_not(instr: Instruction, emitter: _Emitter) -> None:
    emitter.emit(UOp.ADDI, rd=T2, rs1=R_ZERO, imm=-1)
    _rmw(instr, emitter, lambda reg: emitter.emit(
        UOp.XOR, rd=reg, rs1=reg, rs2=T2))


def _crack_shift(instr: Instruction, emitter: _Emitter) -> None:
    reg_uop, imm_uop = _SHIFT_UOPS[instr.op]
    count = instr.operands[1]
    if isinstance(count, ImmOperand):
        _rmw(instr, emitter, lambda reg: emitter.emit(
            imm_uop, rd=reg, rs1=reg, imm=count.value & 31, setflags=True))
    else:  # by ECX
        _rmw(instr, emitter, lambda reg: emitter.emit(
            reg_uop, rd=reg, rs1=reg, rs2=int(Reg.ECX), setflags=True))


def _widening_multiply(instr: Instruction, emitter: _Emitter, high: UOp,
                       low: UOp) -> None:
    """EDX:EAX = EAX * operand."""
    value = emitter.load_operand(instr.operands[0], T1)
    eax, edx = int(Reg.EAX), int(Reg.EDX)
    emitter.emit(high, rd=T2, rs1=eax, rs2=value)
    emitter.emit(low, rd=eax, rs1=eax, rs2=value, setflags=True)
    emitter.emit(UOp.MOV2, rd=edx, rs1=T2)


def _crack_imul(instr: Instruction, emitter: _Emitter) -> None:
    if len(instr.operands) == 1:
        _widening_multiply(instr, emitter, UOp.MULH, UOp.MULL)
        return
    dst, src = instr.operands[:2]
    value = emitter.load_operand(src, T1)
    rd = int(dst.reg)
    if len(instr.operands) == 2:
        emitter.emit(UOp.MULL, rd=rd, rs1=rd, rs2=value, setflags=True)
        return
    emitter.load_imm(T2, instr.operands[2].value)
    emitter.emit(UOp.MULL, rd=rd, rs1=value, rs2=T2, setflags=True)


def _crack_mul(instr: Instruction, emitter: _Emitter) -> None:
    _widening_multiply(instr, emitter, UOp.MULHU, UOp.MULLU)


def _crack_push(instr: Instruction, emitter: _Emitter) -> None:
    (src,) = instr.operands
    esp = int(Reg.ESP)
    if isinstance(src, RegOperand) and src.reg is Reg.ESP:
        emitter.emit(UOp.MOV2, rd=T1, rs1=esp)  # push old ESP
        value = T1
    else:
        value = emitter.load_operand(src, T1)
    emitter.emit(UOp.SUBI, rd=esp, rs1=esp, imm=4)
    emitter.emit(UOp.STW, rd=value, rs1=esp, imm=0)


def _crack_pop(instr: Instruction, emitter: _Emitter) -> None:
    (dst,) = instr.operands
    esp = int(Reg.ESP)
    rd = int(dst.reg)
    emitter.emit(UOp.LDW, rd=rd, rs1=esp, imm=0)
    if rd != esp:  # pop esp: ESP becomes the loaded value
        emitter.emit(UOp.ADDI, rd=esp, rs1=esp, imm=4)


def _crack_string(instr: Instruction, emitter: _Emitter) -> None:
    esi, edi, eax = int(Reg.ESI), int(Reg.EDI), int(Reg.EAX)
    if instr.op is Op.MOVS:
        emitter.emit(UOp.LDW, rd=T1, rs1=esi, imm=0)
        emitter.emit(UOp.STW, rd=T1, rs1=edi, imm=0)
        emitter.emit(UOp.ADDI, rd=esi, rs1=esi, imm=4)
        emitter.emit(UOp.ADDI, rd=edi, rs1=edi, imm=4)
    elif instr.op is Op.STOS:
        emitter.emit(UOp.STW, rd=eax, rs1=edi, imm=0)
        emitter.emit(UOp.ADDI, rd=edi, rs1=edi, imm=4)
    else:  # LODS
        emitter.emit(UOp.LDW, rd=eax, rs1=esi, imm=0)
        emitter.emit(UOp.ADDI, rd=esi, rs1=esi, imm=4)


def _crack_cti(instr: Instruction, emitter: _Emitter) -> None:
    """Control transfers: emit the computation part only.

    Indirect targets land in R29 (R_EXIT_TARGET); direct targets are known
    statically and the translator builds the exit stub itself.
    """
    op = instr.op
    esp = int(Reg.ESP)

    if op is Op.CALL:
        emitter.load_imm(T1, instr.next_addr)
        emitter.emit(UOp.SUBI, rd=esp, rs1=esp, imm=4)
        emitter.emit(UOp.STW, rd=T1, rs1=esp, imm=0)
    if op in (Op.JMP, Op.CALL) and instr.target is None:
        (target_operand,) = instr.operands
        if isinstance(target_operand, RegOperand):
            # R29 is outside the 16-bit format's register range
            emitter.emit(UOp.ADDI, rd=R_EXIT_TARGET,
                         rs1=int(target_operand.reg), imm=0)
        else:
            reg, disp = emitter.address(target_operand)
            emitter.emit(UOp.LDW, rd=R_EXIT_TARGET, rs1=reg, imm=disp)
    if op is Op.RET:
        emitter.emit(UOp.LDW, rd=R_EXIT_TARGET, rs1=esp, imm=0)
        pop_bytes = 4 + (instr.operands[0].value if instr.operands else 0)
        emitter.emit(UOp.ADDI, rd=esp, rs1=esp, imm=pop_bytes)


_RULES = {
    Op.NOP: _crack_nop, Op.MOV: _crack_mov, Op.MOVZX: _crack_extend,
    Op.MOVSX: _crack_extend, Op.LEA: _crack_lea, Op.CMOV: _crack_cmov,
    Op.XCHG: _crack_xchg, Op.INC: _crack_incdec, Op.DEC: _crack_incdec,
    Op.NEG: _crack_neg, Op.NOT: _crack_not, Op.SHL: _crack_shift,
    Op.SHR: _crack_shift, Op.SAR: _crack_shift, Op.IMUL: _crack_imul,
    Op.MUL: _crack_mul, Op.PUSH: _crack_push, Op.POP: _crack_pop,
    Op.MOVS: _crack_string, Op.STOS: _crack_string, Op.LODS: _crack_string,
    Op.JMP: _crack_cti, Op.JCC: _crack_cti, Op.CALL: _crack_cti,
    Op.RET: _crack_cti,
    **{op: _crack_alu for op in (*_ALU_SHORT, *_ALU_LONG)},
}
