"""Operation vocabulary and classification for the x86lite ISA.

The subset follows IA-32's opcode-map structure closely enough that decoding
is genuinely variable-length CISC work: one- and two-byte opcodes, ModRM/SIB
addressing, 8/32-bit displacements and 8/16/32-bit immediates, and prefix
bytes.  The concrete byte-level maps live in ``encoder.py``/``decoder.py``;
this module defines the semantic vocabulary they share.
"""

from __future__ import annotations

import enum


class Op(enum.Enum):
    """Architected operations (semantic level, independent of encoding)."""

    # data movement
    MOV = "mov"
    MOVZX = "movzx"
    MOVSX = "movsx"
    LEA = "lea"
    CMOV = "cmov"
    PUSH = "push"
    POP = "pop"
    XCHG = "xchg"
    # integer ALU
    ADD = "add"
    ADC = "adc"
    SUB = "sub"
    SBB = "sbb"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMP = "cmp"
    TEST = "test"
    INC = "inc"
    DEC = "dec"
    NEG = "neg"
    NOT = "not"
    IMUL = "imul"
    MUL = "mul"
    DIV = "div"
    IDIV = "idiv"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    # control transfer
    JMP = "jmp"
    JCC = "jcc"
    CALL = "call"
    RET = "ret"
    LOOP = "loop"        # dec ECX; branch if nonzero (flags untouched)
    JECXZ = "jecxz"      # branch if ECX == 0
    # string
    MOVS = "movs"
    STOS = "stos"
    LODS = "lods"
    # system / misc
    NOP = "nop"
    HLT = "hlt"
    INT = "int"
    CPUID = "cpuid"


#: Control-transfer instructions; a basic block ends after any of these.
CONTROL_TRANSFER_OPS = frozenset({Op.JMP, Op.JCC, Op.CALL, Op.RET, Op.INT,
                                  Op.HLT, Op.LOOP, Op.JECXZ})

#: Conditional control transfers (two possible successors).
CONDITIONAL_OPS = frozenset({Op.JCC, Op.LOOP, Op.JECXZ})

#: Operations whose hardware decode is "too complex" for the single-cycle
#: assist path (the XLTx86 unit raises ``Flag_cmplx``; the dual-mode decoder
#: traps to microcode/VMM).  This mirrors the paper's escape hatch for rare,
#: long, or microcoded instructions.  LOOP/JECXZ branch on ECX without
#: touching flags, which has no single-micro-op expression in the fusible
#: ISA — they are microcoded, exactly like real x86 implementations treat
#: them.
COMPLEX_OPS = frozenset({Op.DIV, Op.IDIV, Op.INT, Op.CPUID, Op.HLT,
                         Op.LOOP, Op.JECXZ})

#: Operations that write the arithmetic flags.
FLAG_WRITING_OPS = frozenset({
    Op.ADD, Op.ADC, Op.SUB, Op.SBB, Op.AND, Op.OR, Op.XOR, Op.CMP, Op.TEST,
    Op.INC, Op.DEC, Op.NEG, Op.IMUL, Op.MUL, Op.SHL, Op.SHR, Op.SAR,
})

#: Operations that read the arithmetic flags.
FLAG_READING_OPS = frozenset({Op.JCC, Op.CMOV, Op.ADC, Op.SBB})


class Group1(enum.IntEnum):
    """/reg selector for the 0x81/0x83 immediate-ALU group."""

    ADD = 0
    OR = 1
    ADC = 2
    SBB = 3
    AND = 4
    SUB = 5
    XOR = 6
    CMP = 7


class Group2(enum.IntEnum):
    """/reg selector for the 0xC1/0xD1 shift group (subset)."""

    SHL = 4
    SHR = 5
    SAR = 7


class Group3(enum.IntEnum):
    """/reg selector for the 0xF7 unary group."""

    NOT = 2
    NEG = 3
    MUL = 4
    IMUL = 5
    DIV = 6
    IDIV = 7


class Group5(enum.IntEnum):
    """/reg selector for the 0xFF group."""

    INC = 0
    DEC = 1
    CALL = 2
    JMP = 4
    PUSH = 6


GROUP1_TO_OP = {
    Group1.ADD: Op.ADD, Group1.OR: Op.OR, Group1.ADC: Op.ADC,
    Group1.SBB: Op.SBB, Group1.AND: Op.AND, Group1.SUB: Op.SUB,
    Group1.XOR: Op.XOR, Group1.CMP: Op.CMP,
}
OP_TO_GROUP1 = {op: sel for sel, op in GROUP1_TO_OP.items()}

GROUP2_TO_OP = {Group2.SHL: Op.SHL, Group2.SHR: Op.SHR, Group2.SAR: Op.SAR}
OP_TO_GROUP2 = {op: sel for sel, op in GROUP2_TO_OP.items()}

GROUP3_TO_OP = {
    Group3.NOT: Op.NOT, Group3.NEG: Op.NEG, Group3.MUL: Op.MUL,
    Group3.IMUL: Op.IMUL, Group3.DIV: Op.DIV, Group3.IDIV: Op.IDIV,
}
OP_TO_GROUP3 = {op: sel for sel, op in GROUP3_TO_OP.items()}

#: Base bytes of the classic ALU row pattern (op r/m,r = base+1;
#: op r,r/m = base+3; op eAX,imm = base+5).
ALU_ROW_BASE = {
    Op.ADD: 0x00, Op.OR: 0x08, Op.ADC: 0x10, Op.SBB: 0x18,
    Op.AND: 0x20, Op.SUB: 0x28, Op.XOR: 0x30, Op.CMP: 0x38,
}
ALU_ROW_BY_BASE = {base: op for op, base in ALU_ROW_BASE.items()}
