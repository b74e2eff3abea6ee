"""Shared hypothesis strategies for the test suite.

Centralizes how we generate random-but-valid x86lite instructions, operands
and straight-line programs, so that the ISA round-trip tests, the cracker
differential tests, and the SBT fusion equivalence tests all draw from the
same distribution.  The fusible side is here too: single micro-ops for
the encoding round trip, and whole native programs for the machine's
run-versus-step differential.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from hypothesis import strategies as st

from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import (
    I_FORM_OPS,
    LOAD_OPS,
    R_FORM_OPS,
    RR_FORM_OPS,
    SHORT_OPS,
    STORE_OPS,
    UOp,
)
from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond, Reg

regs = st.sampled_from(list(Reg))
#: Registers safe to clobber in generated programs (keeps ESP/EBP sane).
scratch_regs = st.sampled_from([Reg.EAX, Reg.ECX, Reg.EDX, Reg.EBX,
                                Reg.ESI, Reg.EDI])
conds = st.sampled_from(list(Cond))
imm32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
#: operand widths of the forms that take the 0x66 prefix
widths = st.sampled_from([32, 32, 32, 16])
imm8ish = st.integers(min_value=-128, max_value=127)
scales = st.sampled_from([1, 2, 4, 8])
disps = st.one_of(st.just(0), st.integers(-128, 127),
                  st.integers(-(2 ** 31), 2 ** 31 - 1))


@st.composite
def mem_operands(draw, size: int = 32) -> MemOperand:
    base = draw(st.one_of(st.none(), regs))
    index = draw(st.one_of(st.none(),
                           st.sampled_from([reg for reg in Reg
                                            if reg is not Reg.ESP])))
    scale = draw(scales) if index is not None else 1
    disp = draw(disps)
    return MemOperand(base, index, scale, disp, size)


#: Two-operand ALU instructions over registers/immediates/memory.
_ALU_OPS = [Op.ADD, Op.ADC, Op.SUB, Op.SBB, Op.AND, Op.OR, Op.XOR, Op.CMP]


def immediates(width: int):
    """Immediates of a ``width``-bit form, the imm8 boundary included."""
    top = (1 << width) - 1
    return st.one_of(st.integers(0, top),
                     st.sampled_from([0x7F, 0x80, top - 0x80, top - 0x7F]),
                     ).map(lambda value: ImmOperand(value, width))


def _two_operand(draw, width: int) -> tuple:
    """Operands of an ALU or MOV form (r,r / r,m / m,r / r,i / m,i)."""
    form = draw(st.sampled_from(["rr", "rm", "mr", "ri", "mi"]))
    if form == "rr":
        return RegOperand(draw(regs)), RegOperand(draw(regs))
    if form == "rm":
        return RegOperand(draw(regs)), draw(mem_operands(width))
    if form == "mr":
        return draw(mem_operands(width)), RegOperand(draw(regs))
    if form == "ri":
        return RegOperand(draw(regs)), draw(immediates(width))
    return draw(mem_operands(width)), draw(immediates(width))


@st.composite
def alu_instructions(draw) -> Instruction:
    op = draw(st.sampled_from(_ALU_OPS))
    width = draw(widths)
    return Instruction(op=op, operands=_two_operand(draw, width),
                       width=width)


@st.composite
def mov_instructions(draw) -> Instruction:
    width = draw(widths)
    return Instruction(op=Op.MOV, operands=_two_operand(draw, width),
                       width=width)


@st.composite
def misc_instructions(draw) -> Instruction:
    choice = draw(st.sampled_from(
        ["lea", "inc", "dec", "neg", "not", "push_r", "pop_r", "push_i",
         "shift", "imul2", "imul3", "test", "nop", "cmov", "movzx",
         "movsx", "xchg"]))
    if choice == "lea":
        return Instruction(Op.LEA, (RegOperand(draw(regs)),
                                    draw(mem_operands())))
    if choice in ("inc", "dec", "neg", "not"):
        op = {"inc": Op.INC, "dec": Op.DEC, "neg": Op.NEG,
              "not": Op.NOT}[choice]
        dst = draw(st.one_of(regs.map(RegOperand), mem_operands()))
        return Instruction(op, (dst,))
    if choice == "push_r":
        return Instruction(Op.PUSH, (RegOperand(draw(regs)),))
    if choice == "pop_r":
        return Instruction(Op.POP, (RegOperand(draw(regs)),))
    if choice == "push_i":
        return Instruction(Op.PUSH, (ImmOperand(draw(imm32)),))
    if choice == "shift":
        op = draw(st.sampled_from([Op.SHL, Op.SHR, Op.SAR]))
        count = draw(st.one_of(
            st.integers(1, 31).map(lambda n: ImmOperand(n, 8)),
            st.just(RegOperand(Reg.ECX))))
        dst = draw(st.one_of(regs.map(RegOperand), mem_operands()))
        return Instruction(op, (dst, count))
    if choice in ("imul2", "imul3", "test"):
        width = draw(widths)
        rm = draw(st.one_of(regs.map(RegOperand), mem_operands(width)))
        if choice == "test":
            operands = (rm, RegOperand(draw(regs)))
        else:
            operands = (RegOperand(draw(regs)), rm)
        if choice == "imul3":
            operands += (draw(immediates(width)),)
        return Instruction(Op.IMUL if choice != "test" else Op.TEST,
                           operands, width=width)
    if choice == "cmov":
        return Instruction(Op.CMOV, (RegOperand(draw(regs)),
                                     draw(st.one_of(regs.map(RegOperand),
                                                    mem_operands()))),
                           cond=draw(conds))
    if choice == "movzx":
        return Instruction(Op.MOVZX, (RegOperand(draw(regs)),
                                      draw(mem_operands(
                                          draw(st.sampled_from([8, 16]))))))
    if choice == "movsx":
        return Instruction(Op.MOVSX, (RegOperand(draw(regs)),
                                      draw(mem_operands(
                                          draw(st.sampled_from([8, 16]))))))
    if choice == "xchg":
        dst = draw(st.one_of(regs.map(RegOperand), mem_operands()))
        return Instruction(Op.XCHG, (dst, RegOperand(draw(regs))))
    return Instruction(Op.NOP)


#: Any encodable non-control-transfer instruction.
instructions = st.one_of(alu_instructions(), mov_instructions(),
                         misc_instructions())


# -- raw encodings: every ModRM/SIB form, values at the guard boundaries ------

#: where the cracker's questions about a value change their answer:
#: the 13-bit immediate ranges (signed and unsigned), low 13 bits zero
#: (``load_imm`` drops its ORI), the 32-bit sign boundary
_BOUNDARIES = (-4097, -4096, -1, 0, 1, 4095, 4096, 8191, 8192, 0x6000,
               0x12340000, 0x7FFFFFFF, -0x80000000, -0x7FFFE000)


def boundary_values(size: int):
    """Signed values of a ``size``-byte displacement / immediate field,
    biased to the guard boundaries."""
    low, high = -(1 << 8 * size - 1), (1 << 8 * size - 1) - 1
    return st.one_of(
        st.sampled_from([value for value in _BOUNDARIES + (low, high)
                         if low <= value <= high]),
        st.integers(low, high))


def _field(draw, size: int) -> bytes:
    if not size:
        return b""
    return draw(boundary_values(size)).to_bytes(size, "little", signed=True)


@st.composite
def _modrm_tails(draw, selectors=range(8)) -> bytes:
    """ModRM (+SIB) (+disp): every mod / rm / scale / index / base."""
    mod, rm = draw(st.integers(0, 3)), draw(st.integers(0, 7))
    out = bytes([mod << 6 | draw(st.sampled_from(selectors)) << 3 | rm])
    disp = (0, 1, 4, 0)[mod]
    if mod != 3 and rm == 4:
        sib = draw(st.integers(0, 255))
        out += bytes([sib])
        if mod == 0 and sib & 7 == 5:
            disp = 4
    elif mod == 0 and rm == 5:
        disp = 4
    return out + _field(draw, disp)


#: (opcode bytes, /reg selectors, immediate bytes) of the ModRM opcodes
_MODRM_OPCODES = (
    [(bytes([base + form]), range(8), 0)
     for base in range(0x00, 0x40, 8) for form in (1, 3)]
    + [(bytes([op]), range(8), 0) for op in (0x85, 0x87, 0x89, 0x8B, 0x8D)]
    + [(b"\x0f" + bytes([op]), range(8), 0)
       for op in (0x40, 0x45, 0x4C, 0x4F, 0xAF, 0xB6, 0xB7, 0xBE, 0xBF)]
    + [(b"\x81", range(8), 4), (b"\x83", range(8), 1), (b"\xc7", (0,), 4),
       (b"\xc1", (4, 5, 7), 1), (b"\xd1", (4, 5, 7), 0),
       (b"\xd3", (4, 5, 7), 0), (b"\xf7", (0,), 4),
       (b"\xf7", (2, 3, 4, 5, 6), 0), (b"\xff", (0, 1, 2, 4, 6), 0),
       (b"\x69", range(8), 4), (b"\x6b", range(8), 1)])

#: (opcode bytes, immediate bytes) of the opcodes without a ModRM
_PLAIN_OPCODES = (
    [(bytes([base + 5]), 4) for base in range(0x00, 0x40, 8)]
    + [(bytes([op]), 0) for op in (0x40, 0x4B, 0x50, 0x54, 0x5C, 0x5F,
                                   0x90, 0xA5, 0xAB, 0xAD, 0xC3, 0xF4)]
    + [(b"\x68", 4), (b"\x6a", 1), (b"\xb8", 4), (b"\xbd", 4),
       (b"\xc2", 2), (b"\xcd", 1), (b"\x74", 1), (b"\xeb", 1),
       (b"\xe8", 4), (b"\xe9", 4), (b"\x0f\x85", 4), (b"\xe2", 1)])


@st.composite
def raw_instructions(draw) -> bytes:
    """Instruction bytes built field by field (the encoder picks one
    form per instruction; this reaches disp8 *and* disp32 of a value,
    every SIB, the prefixed forms), padded to a 16-byte fetch.  Some do
    not decode: a reserved selector, ``lea`` of a register."""
    prefix = draw(st.sampled_from([b"", b"", b"", b"", b"\x66", b"\xf3"]))
    if draw(st.integers(0, 3)):
        opcode, selectors, imm = draw(st.sampled_from(_MODRM_OPCODES))
        body = opcode + draw(_modrm_tails(selectors))
    else:
        opcode, imm = draw(st.sampled_from(_PLAIN_OPCODES))
        body = opcode
    return (prefix + body + _field(draw, imm)).ljust(16, b"\0")


@st.composite
def basic_blocks(draw, min_size: int = 1, max_size: int = 10) -> list:
    """A straight-line dynamic basic block (no control transfers)."""
    return draw(st.lists(instructions, min_size=min_size,
                         max_size=max_size))


_LOOP_REGS = ["eax", "ebx", "edx", "esi", "edi"]
_LOOP_OPS = ["add", "sub", "and", "or", "xor"]


@st.composite
def loop_programs(draw, min_iterations: int = 5,
                  max_iterations: int = 12) -> str:
    """Source with a hot counted loop: drives BBT, profiling and SBT."""
    lines = ["start:"]
    for reg in _LOOP_REGS:
        lines.append(f"    mov {reg}, {draw(st.integers(0, 0xFFFF))}")
    lines.append(f"    mov ecx, "
                 f"{draw(st.integers(min_iterations, max_iterations))}")
    lines.append("loop_top:")
    for _ in range(draw(st.integers(1, 6))):
        reg = draw(st.sampled_from(_LOOP_REGS))
        op = draw(st.sampled_from(_LOOP_OPS))
        if draw(st.booleans()):
            lines.append(f"    {op} {reg}, "
                         f"{draw(st.sampled_from(_LOOP_REGS))}")
        else:
            lines.append(f"    {op} {reg}, "
                         f"{draw(st.integers(-500, 500))}")
    lines += ["    dec ecx", "    jnz loop_top",
              "    mov eax, 1", "    mov ebx, esi", "    int 0x80",
              "    mov eax, 0", "    mov ebx, 0", "    int 0x80"]
    return "\n".join(lines)


# -- hypothesis strategies over the micro-op space ---------------------------

def _uop_strategy():
    def build(draw):
        kind = draw(st.sampled_from(
            ["short", "r", "i", "rr", "mem", "lui", "bc", "jmp", "sel",
             "special"]))
        fused = draw(st.booleans())
        if kind == "short":
            op = draw(st.sampled_from(sorted(SHORT_OPS,
                                             key=lambda o: o.value)))
            rd = draw(st.integers(0, 15))
            if op is UOp.ADDI2:
                return MicroOp(op, rd=rd, imm=draw(st.integers(-8, 7)),
                               fused=fused,
                               setflags=draw(st.booleans()))
            return MicroOp(op, rd=rd, rs1=draw(st.integers(0, 15)),
                           fused=fused, setflags=draw(st.booleans()))
        reg = st.integers(0, 31)
        if kind == "r":
            ops = sorted(R_FORM_OPS - {UOp.SEL}, key=lambda o: o.value)
            return MicroOp(draw(st.sampled_from(ops)), rd=draw(reg),
                           rs1=draw(reg), rs2=draw(reg), fused=fused,
                           setflags=draw(st.booleans()))
        if kind == "i":
            op = draw(st.sampled_from(sorted(I_FORM_OPS,
                                             key=lambda o: o.value)))
            if op in (UOp.ADDI, UOp.SUBI):
                imm = draw(st.integers(-4096, 4095))
            else:
                imm = draw(st.integers(0, 8191))
            return MicroOp(op, rd=draw(reg), rs1=draw(reg), imm=imm,
                           fused=fused, setflags=draw(st.booleans()))
        if kind == "rr":
            op = draw(st.sampled_from(sorted(RR_FORM_OPS,
                                             key=lambda o: o.value)))
            return MicroOp(op, rd=draw(reg), rs1=draw(reg), fused=fused,
                           setflags=draw(st.booleans()))
        if kind == "mem":
            op = draw(st.sampled_from(sorted(LOAD_OPS | STORE_OPS,
                                             key=lambda o: o.value)))
            return MicroOp(op, rd=draw(reg), rs1=draw(reg),
                           imm=draw(st.integers(-4096, 4095)), fused=fused)
        if kind == "lui":
            return MicroOp(UOp.LUI, rd=draw(reg),
                           imm=draw(st.integers(0, (1 << 19) - 1)),
                           fused=fused)
        if kind == "bc":
            return MicroOp(UOp.BC, cond=draw(st.sampled_from(list(Cond))),
                           imm=draw(st.integers(-4096, 4095)), fused=fused)
        if kind == "jmp":
            return MicroOp(UOp.JMP,
                           imm=draw(st.integers(-(1 << 23),
                                                (1 << 23) - 1)),
                           fused=fused)
        if kind == "sel":
            return MicroOp(UOp.SEL, rd=draw(reg), rs1=draw(reg),
                           cond=draw(st.sampled_from(list(Cond))),
                           fused=fused)
        op = draw(st.sampled_from([UOp.NOP, UOp.HALT, UOp.VMEXIT, UOp.JR,
                                   UOp.RDFLG, UOp.WRFLG, UOp.LDCSR,
                                   UOp.XLTX86, UOp.VMCALL, UOp.JCSRC,
                                   UOp.JCSRT]))
        if op in (UOp.VMCALL, UOp.JCSRC, UOp.JCSRT):
            return MicroOp(op, imm=draw(st.integers(0, 100)
                                        if op is UOp.VMCALL
                                        else st.integers(-4096, 4095)),
                           fused=fused)
        return MicroOp(op, rd=draw(reg), rs1=draw(reg), fused=fused)
    return st.composite(build)()


uops = _uop_strategy()


# -- whole programs for the native machine ------------------------------------

#: Native programs start a few parcels below this page boundary (or on
#: it), so runs and single micro-ops straddle two pages.
NATIVE_CODE_PAGE = 0x1000_1000
NATIVE_DATA_BASE = 0x0050_0000

_RETARGETED_OPS = (UOp.BC, UOp.JMP, UOp.JCSRC, UOp.JCSRT)
_POINTER_REGS = (8, 9, 10, 11)


@dataclass
class NativeProgram:
    """What one native-machine execution starts from."""

    start: int
    uops: List[MicroOp]
    regs: List[int]
    flags: int
    budget: int


@st.composite
def _pointer_accesses(draw) -> MicroOp:
    """A load or store based on one of the pointer registers."""
    op = draw(st.sampled_from(sorted(LOAD_OPS | STORE_OPS,
                                     key=lambda o: o.value)))
    return MicroOp(op, rd=draw(st.integers(0, 31)),
                   rs1=draw(st.sampled_from(_POINTER_REGS)),
                   imm=draw(st.integers(-8, 64)),
                   fused=draw(st.booleans()))


@st.composite
def native_programs(draw, max_size: int = 24) -> NativeProgram:
    """A micro-op program with the state and budget to run it under.

    Any micro-op may appear anywhere, and about half are memory accesses
    through R8..R11, which start out pointing at data, at the program
    itself (stores there rewrite code that may already be decoded) and
    at the last bytes of the address space (accesses there fault).  Most
    branch offsets are moved onto a micro-op boundary a few hops away;
    backward ones loop until the budget ends them, the rest jump into
    the wild.  One budget in three is too small to reach the end.
    """
    body = draw(st.lists(st.one_of(uops, _pointer_accesses()),
                         min_size=1, max_size=max_size))
    body.append(MicroOp(draw(st.sampled_from(
        [UOp.HALT, UOp.VMEXIT, UOp.VMCALL]))))
    offsets = [0]
    for uop in body:
        offsets.append(offsets[-1] + uop.length)
    for index, uop in enumerate(body):
        if uop.op in _RETARGETED_OPS and draw(st.integers(0, 9)):
            landing = index + 1 + draw(st.integers(-3, 6))
            landing = min(max(landing, 0), len(body) - 1)
            body[index] = replace(
                uop, imm=offsets[landing] - offsets[index + 1])
    start = NATIVE_CODE_PAGE - 2 * draw(st.integers(0, 24))
    regs = draw(st.lists(imm32, min_size=32, max_size=32))
    regs[8:12] = [NATIVE_DATA_BASE, start, start + 2,
                  draw(st.sampled_from([0xFFFFFFF0, 0xFFFFFFFC]))]
    budget = draw(st.one_of(st.integers(0, len(body) + 4),
                            st.just(8 * len(body)),
                            st.just(8 * len(body))))
    return NativeProgram(start, body, regs, draw(st.integers(0, 15)),
                         budget)
