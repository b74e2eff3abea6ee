"""Operation vocabulary, classification and the opcode map of x86lite.

The subset follows IA-32's opcode-map structure closely enough that decoding
is genuinely variable-length CISC work: one- and two-byte opcodes, ModRM/SIB
addressing, 8/32-bit displacements and 8/16/32-bit immediates, and prefix
bytes.  ``FORMS`` is the opcode map, one row per encoding form; the
decoder and the encoder walk it, the assembler takes its mnemonics and
operand counts from it, and ``docs/isa_reference.md`` lists it row by row.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple, Union


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

    # Members are singletons compared by identity; hashing them by
    # identity keeps table and set lookups in C (``Enum.__hash__`` is a
    # Python-level call), as ``fusible.opcodes.UOp`` does.
    __hash__ = object.__hash__


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

#: Prefix bytes: operand size 16 bits, and REP.
PREFIX_OPERAND_SIZE = 0x66
PREFIX_REP = 0xF3


class Form(NamedTuple):
    """One encoding form: ``op`` as the ``opcode`` byte(s), then the
    operands ``layout`` names.  ``ext`` is the ModRM ``/reg`` selector
    (0-7), ``"+r"`` (the opcode's low three bits name the ``Z``
    register), ``"+cc"`` (its low four name the condition) or None.

    Layout letters, after the Intel opcode map: ``E`` ModRM r/m, a
    register or memory of the operand size; ``G`` ModRM reg, a register;
    ``M`` r/m that must be memory, ``Mb``/``Mw`` a byte/word of memory
    (the instruction is then 32-bit); ``Z`` the ``+r`` register; ``A``
    EAX; ``CL`` ECX; ``1`` the count 1; ``Ib`` imm8 sign-extended to the
    operand size, ``Ibd`` to 32 bits; ``Iu`` unsigned imm8; ``Iw``
    imm16; ``Id`` imm32; ``Iz`` imm16 or imm32 by the operand size;
    ``Jb``/``Jz`` rel8/rel32 to the instruction's target."""

    op: Op
    opcode: bytes
    ext: Optional[Union[int, str]]
    layout: Tuple[str, ...]


#: The classic ALU row: an op's index is its ``/reg`` in 0x81/0x83 and
#: the row (index * 8) of its r/m,r / r,r/m / eAX,imm opcodes
_ALU = (Op.ADD, Op.OR, Op.ADC, Op.SBB, Op.AND, Op.SUB, Op.XOR, Op.CMP)

#: Every encoding form of x86lite; an op's rows are in the encoder's order
#: of preference (the shortest form that takes the operands comes first).
FORMS = tuple(Form(op, bytes.fromhex(opcode), ext, tuple(layout.split()))
              for op, opcode, ext, layout in (
    *((op, opcode, ext, layout) for n, op in enumerate(_ALU)
      for opcode, ext, layout in (
          ("83", n, "E Ib"), (f"{8 * n + 5:02x}", None, "A Iz"),
          ("81", n, "E Iz"), (f"{8 * n + 1:02x}", None, "E G"),
          (f"{8 * n + 3:02x}", None, "G E"))),
    (Op.MOV, "b8", "+r", "Z Iz"), (Op.MOV, "c7", 0, "E Iz"),
    (Op.MOV, "89", None, "E G"), (Op.MOV, "8b", None, "G E"),
    (Op.TEST, "f7", 0, "E Iz"), (Op.TEST, "85", None, "E G"),
    (Op.XCHG, "87", None, "E G"),
    (Op.LEA, "8d", None, "G M"),
    (Op.MOVZX, "0f b6", None, "G Mb"), (Op.MOVZX, "0f b7", None, "G Mw"),
    (Op.MOVSX, "0f be", None, "G Mb"), (Op.MOVSX, "0f bf", None, "G Mw"),
    (Op.CMOV, "0f 40", "+cc", "G E"),
    (Op.PUSH, "50", "+r", "Z"), (Op.PUSH, "6a", None, "Ibd"),
    (Op.PUSH, "68", None, "Id"), (Op.PUSH, "ff", 6, "E"),
    (Op.POP, "58", "+r", "Z"),
    (Op.INC, "40", "+r", "Z"), (Op.INC, "ff", 0, "E"),
    (Op.DEC, "48", "+r", "Z"), (Op.DEC, "ff", 1, "E"),
    *((op, opcode, ext, layout)
      for op, ext in ((Op.SHL, 4), (Op.SHR, 5), (Op.SAR, 7))
      for opcode, layout in (("d1", "E 1"), ("c1", "E Iu"),
                             ("d3", "E CL"))),
    (Op.IMUL, "6b", None, "G E Ib"), (Op.IMUL, "69", None, "G E Iz"),
    (Op.IMUL, "0f af", None, "G E"),
    *((op, "f7", ext, "E") for op, ext in (
        (Op.NOT, 2), (Op.NEG, 3), (Op.MUL, 4), (Op.IMUL, 5), (Op.DIV, 6),
        (Op.IDIV, 7))),
    (Op.JMP, "eb", None, "Jb"), (Op.JMP, "e9", None, "Jz"),
    (Op.JMP, "ff", 4, "E"),
    (Op.JCC, "70", "+cc", "Jb"), (Op.JCC, "0f 80", "+cc", "Jz"),
    (Op.LOOP, "e2", None, "Jb"), (Op.JECXZ, "e3", None, "Jb"),
    (Op.CALL, "e8", None, "Jz"), (Op.CALL, "ff", 2, "E"),
    (Op.RET, "c3", None, ""), (Op.RET, "c2", None, "Iw"),
    (Op.MOVS, "a5", None, ""), (Op.STOS, "ab", None, ""),
    (Op.LODS, "ad", None, ""),
    (Op.NOP, "90", None, ""), (Op.HLT, "f4", None, ""),
    (Op.INT, "cd", None, "Iu"), (Op.CPUID, "0f a2", None, ""),
))
