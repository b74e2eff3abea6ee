"""Micro-op vocabulary of the fusible implementation ISA.

Micro-ops come in two encoded lengths — 16-bit and 32-bit — mirroring the
"16b/32b micro-op format" of the baseline co-designed VM (Hu & Smith,
HPCA 2006).  Each micro-op carries a *fusible* head bit; a set bit marks
the micro-op as the head of a fused macro-op pair with its successor.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, Tuple


class UOp(enum.Enum):
    """Micro-operations (semantic level)."""

    # -- 16-bit-encodable forms (registers R0..R15, short immediates) -----
    MOV2 = "mov2"          # rd <- rs
    ADD2 = "add2"          # rd <- rd + rs
    SUB2 = "sub2"          # rd <- rd - rs
    AND2 = "and2"
    OR2 = "or2"
    XOR2 = "xor2"
    CMP2 = "cmp2"          # flags(rd - rs)
    TEST2 = "test2"        # flags(rd & rs)
    ADDI2 = "addi2"        # rd <- rd + sext(imm4)
    NOP2 = "nop2"

    # -- 32-bit register forms ------------------------------------------------
    ADD = "add"            # rd <- rs1 + rs2
    ADC = "adc"
    SUB = "sub"
    SBB = "sbb"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    MULL = "mull"          # low 32 bits of product (.f: signed-ovf flags)
    MULLU = "mullu"        # low 32 bits of product (.f: unsigned-ovf flags)
    MULH = "mulh"          # high 32 bits of signed product
    MULHU = "mulhu"        # high 32 bits of unsigned product
    SEL = "sel"            # if cond(flags): rd <- rs1  (CMOV support)

    # -- 32-bit immediate forms ---------------------------------------------
    ADDI = "addi"          # rd <- rs1 + sext(imm13)
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"            # rd <- rs1 | zext(imm13)
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    SARI = "sari"
    LUI = "lui"            # rd <- imm19 << 13
    INCF = "incf"          # rd <- rs1 + 1; .f sets ZF/SF/OF, preserves CF
    DECF = "decf"          # rd <- rs1 - 1; .f sets ZF/SF/OF, preserves CF

    # -- memory ----------------------------------------------------------------
    LDW = "ldw"            # rd <- mem32[rs1 + sext(imm13)]
    LDHU = "ldhu"
    LDHS = "ldhs"
    LDBU = "ldbu"
    LDBS = "ldbs"
    STW = "stw"            # mem32[rs1 + sext(imm13)] <- rd
    STH = "sth"
    STB = "stb"
    LDF = "ldf"            # F[fd] <- mem128[rs1 + sext(imm13)]
    STF = "stf"            # mem128[rs1 + sext(imm13)] <- F[fd]

    # -- control transfer -------------------------------------------------------
    BC = "bc"              # branch on condition (x86 tttn code) imm13 offset
    JMP = "jmp"            # pc-relative imm24 (chains inside code cache)
    JR = "jr"              # indirect jump to regs[rs1]
    VMEXIT = "vmexit"      # leave translated code; x86 target in regs[rs1]
    VMCALL = "vmcall"      # call VMM service imm13 (complex instr, syscall)

    # -- flags / special ---------------------------------------------------------
    RDFLG = "rdflg"        # rd <- packed architected flags
    WRFLG = "wrflg"        # packed architected flags <- rs1
    XLTX86 = "xltx86"      # F[fd] <- crack(F[fs]); sets CSR (Table 1)
    LDCSR = "ldcsr"        # rd <- CSR
    JCSRC = "jcsrc"        # branch imm13 if CSR.Flag_cmplx  ("Jcpx")
    JCSRT = "jcsrt"        # branch imm13 if CSR.Flag_cti    ("Jcti")
    NOP = "nop"
    HALT = "halt"          # stop the native machine (VMM/demo use)

    # Members are singletons compared by identity.  Hashing them by
    # identity keeps every table and set lookup in C; ``Enum.__hash__``
    # is a Python-level call per membership test.  (``Cond`` is an
    # ``IntEnum`` and already hashes through ``int.__hash__``.)
    __hash__ = object.__hash__


# -- the per-opcode property table ---------------------------------------------

# Class bits of an opcode, as the rows below spell them; ``OpInfo`` holds
# each as a bool attribute of the same name in lower case.
LOAD, STORE, BRANCH, BARRIER, TERMINAL, RELATIVE, HEAD, TAIL, LONG_LATENCY, \
    READS_FLAGS, ALWAYS_FLAGS = (1 << bit for bit in range(11))

_BIT_NAMES = ("load", "store", "branch", "barrier", "terminal", "relative",
              "head", "tail", "long_latency", "reads_flags", "always_flags")

# Destination rules (``OpInfo.dest``).
DEST_NONE, DEST_RD, DEST_RD_NZ = range(3)

#: Codec forms (``OpInfo.form``): which operand fields the encoded word
#: carries.  ``repro.isa.fusible.encoding`` keeps one packer/unpacker
#: pair per form.  The first two are the 16-bit format.
FORMS = (
    "S2",    # rd4, rs4, .f
    "S2I",   # rd4, signed imm4, .f
    "N0",    # no operands
    "R1",    # rd
    "X2",    # fd, fs
    "R2",    # rd, rs1, .f
    "R3",    # rd, rs1, rs2, .f
    "SEL",   # rd, rs1, cond, .f
    "I13",   # rd, rs1, .f, sign-extended imm13
    "U13",   # rd, rs1, .f, zero-extended imm13
    "U19",   # rd, imm19
    "BC",    # cond, sign-extended imm13
    "J24",   # signed imm24
)
SHORT_FORMS = frozenset(FORMS[:2])


class OpInfo:
    """Everything static about one opcode: one row of :data:`OP_INFO`."""

    __slots__ = ("op", "form", "number", "length", "dest", "sources",
                 "boundary") + _BIT_NAMES

    def __init__(self, op: UOp, form: str, number: int, dest: int,
                 sources: Tuple[str, ...], bits: int) -> None:
        self.op = op
        self.form = form                # codec form, one of FORMS
        self.number = number            # opcode number within its format
        self.length = 2 if form in SHORT_FORMS else 4   # encoded bytes
        self.dest = dest                # DEST_* rule for the rd field
        self.sources = sources          # operand fields read as GPRs
        for shift, name in enumerate(_BIT_NAMES):
            setattr(self, name, bool(bits >> shift & 1))
        #: fusion-region delimiter (control transfer or VMM barrier)
        self.boundary = self.branch or self.barrier


_ALU = HEAD | TAIL
_RS1, _RD, _RD_RS1, _RS1_RS2, _RS1_RD = \
    ("rs1",), ("rd",), ("rd", "rs1"), ("rs1", "rs2"), ("rs1", "rd")

#: opcode -> (form, number, dest rule, source fields, class bits)
_ROWS = {
    # 16-bit forms
    UOp.NOP2: ("S2", 0, DEST_NONE, (), 0),
    UOp.MOV2: ("S2", 1, DEST_RD, _RS1, _ALU),
    UOp.ADD2: ("S2", 2, DEST_RD, _RD_RS1, _ALU),
    UOp.SUB2: ("S2", 3, DEST_RD, _RD_RS1, _ALU),
    UOp.AND2: ("S2", 4, DEST_RD, _RD_RS1, _ALU),
    UOp.OR2: ("S2", 5, DEST_RD, _RD_RS1, _ALU),
    UOp.XOR2: ("S2", 6, DEST_RD, _RD_RS1, _ALU),
    UOp.CMP2: ("S2", 7, DEST_NONE, _RD_RS1, TAIL | ALWAYS_FLAGS),
    UOp.TEST2: ("S2", 8, DEST_NONE, _RD_RS1, TAIL | ALWAYS_FLAGS),
    UOp.ADDI2: ("S2I", 9, DEST_RD, _RD, _ALU),
    # 32-bit register forms
    UOp.NOP: ("N0", 0, DEST_NONE, (), 0),
    UOp.ADD: ("R3", 1, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.ADC: ("R3", 2, DEST_RD_NZ, _RS1_RS2, TAIL | READS_FLAGS),
    UOp.SUB: ("R3", 3, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.SBB: ("R3", 4, DEST_RD_NZ, _RS1_RS2, TAIL | READS_FLAGS),
    UOp.AND: ("R3", 5, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.OR: ("R3", 6, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.XOR: ("R3", 7, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.SHL: ("R3", 8, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.SHR: ("R3", 9, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.SAR: ("R3", 10, DEST_RD_NZ, _RS1_RS2, _ALU),
    UOp.MULL: ("R3", 11, DEST_RD_NZ, _RS1_RS2, LONG_LATENCY),
    UOp.MULLU: ("R3", 12, DEST_RD_NZ, _RS1_RS2, 0),
    UOp.MULH: ("R3", 13, DEST_RD_NZ, _RS1_RS2, LONG_LATENCY),
    UOp.MULHU: ("R3", 14, DEST_RD_NZ, _RS1_RS2, LONG_LATENCY),
    # keeps the old rd when the condition fails, so rd is a source too
    UOp.SEL: ("SEL", 15, DEST_RD_NZ, _RS1_RD, READS_FLAGS),
    # 32-bit immediate forms
    UOp.ADDI: ("I13", 16, DEST_RD_NZ, _RS1, _ALU),
    UOp.SUBI: ("I13", 17, DEST_RD_NZ, _RS1, _ALU),
    UOp.ANDI: ("U13", 18, DEST_RD_NZ, _RS1, _ALU),
    UOp.ORI: ("U13", 19, DEST_RD_NZ, _RS1, _ALU),
    UOp.XORI: ("U13", 20, DEST_RD_NZ, _RS1, _ALU),
    UOp.SHLI: ("U13", 21, DEST_RD_NZ, _RS1, _ALU),
    UOp.SHRI: ("U13", 22, DEST_RD_NZ, _RS1, _ALU),
    UOp.SARI: ("U13", 23, DEST_RD_NZ, _RS1, _ALU),
    UOp.LUI: ("U19", 24, DEST_RD_NZ, (), _ALU),
    UOp.INCF: ("R2", 25, DEST_RD_NZ, _RS1, _ALU),
    UOp.DECF: ("R2", 26, DEST_RD_NZ, _RS1, _ALU),
    # memory (stores read rd as data; LDF/STF move an F register)
    UOp.LDW: ("I13", 27, DEST_RD_NZ, _RS1, LOAD | TAIL),
    UOp.LDHU: ("I13", 28, DEST_RD_NZ, _RS1, LOAD | TAIL),
    UOp.LDHS: ("I13", 29, DEST_RD_NZ, _RS1, LOAD | TAIL),
    UOp.LDBU: ("I13", 30, DEST_RD_NZ, _RS1, LOAD | TAIL),
    UOp.LDBS: ("I13", 31, DEST_RD_NZ, _RS1, LOAD | TAIL),
    UOp.STW: ("I13", 32, DEST_NONE, _RS1_RD, STORE | TAIL),
    UOp.STH: ("I13", 33, DEST_NONE, _RS1_RD, STORE | TAIL),
    UOp.STB: ("I13", 34, DEST_NONE, _RS1_RD, STORE | TAIL),
    UOp.LDF: ("I13", 35, DEST_NONE, _RS1, LOAD | LONG_LATENCY),
    UOp.STF: ("I13", 36, DEST_NONE, _RS1, STORE | LONG_LATENCY),
    # control transfer
    UOp.BC: ("BC", 37, DEST_NONE, (),
             BRANCH | RELATIVE | TAIL | READS_FLAGS),
    UOp.JMP: ("J24", 38, DEST_NONE, (), BRANCH | RELATIVE),
    UOp.JR: ("R2", 39, DEST_NONE, _RS1, BRANCH | TERMINAL),
    UOp.VMEXIT: ("R2", 40, DEST_NONE, _RS1, BRANCH | BARRIER | TERMINAL),
    UOp.VMCALL: ("U13", 41, DEST_NONE, (), BRANCH | BARRIER),
    # flags / special
    UOp.RDFLG: ("R1", 42, DEST_RD_NZ, (), BARRIER | READS_FLAGS),
    UOp.WRFLG: ("R2", 43, DEST_NONE, _RS1, BARRIER),
    UOp.XLTX86: ("X2", 44, DEST_NONE, (), BARRIER | LONG_LATENCY),
    UOp.LDCSR: ("R1", 45, DEST_RD_NZ, (), BARRIER),
    UOp.JCSRC: ("I13", 46, DEST_NONE, (), BRANCH | BARRIER | RELATIVE),
    UOp.JCSRT: ("I13", 47, DEST_NONE, (), BRANCH | BARRIER | RELATIVE),
    UOp.HALT: ("N0", 48, DEST_NONE, (), BRANCH | BARRIER | TERMINAL),
}

#: The one per-opcode property table.  ``MicroOp``, the codec, the
#: verifier and the fusion pass all read opcode facts from here.
OP_INFO: Dict[UOp, OpInfo] = {op: OpInfo(op, *row)
                              for op, row in _ROWS.items()}


def _ops_where(test: Callable[[OpInfo], bool]) -> FrozenSet[UOp]:
    return frozenset(op for op, info in OP_INFO.items() if test(info))


# Views of the table under the names importers already use.

#: Micro-ops encoded in the 16-bit format.
SHORT_OPS = _ops_where(lambda info: info.length == 2)

#: Register-register 32-bit ALU forms.
R_FORM_OPS = _ops_where(lambda info: info.form in ("R3", "SEL"))

#: Immediate 32-bit ALU forms (imm13 forms that write rd, loads aside).
I_FORM_OPS = _ops_where(lambda info: info.form in ("I13", "U13")
                        and info.dest != DEST_NONE and not info.load)

#: Two-register forms (rd, rs1 only).
RR_FORM_OPS = _ops_where(lambda info: info.form == "R2"
                         and info.dest != DEST_NONE)

#: Loads (rd is written from memory).
LOAD_OPS = _ops_where(lambda info: info.load)

#: Stores (rd is the data source).
STORE_OPS = _ops_where(lambda info: info.store)

MEMORY_OPS = LOAD_OPS | STORE_OPS

#: Control transfers (end of in-line execution).
BRANCH_OPS = _ops_where(lambda info: info.branch)

#: Single-cycle ALU micro-ops eligible to *head* a fused macro-op pair.
FUSIBLE_HEAD_OPS = _ops_where(lambda info: info.head)

#: Micro-ops allowed as the *tail* of a fused pair (consume head's result).
FUSIBLE_TAIL_OPS = _ops_where(lambda info: info.tail)

#: Long-latency micro-ops (multi-cycle in the timing model).
LONG_LATENCY_OPS = _ops_where(lambda info: info.long_latency)

#: Micro-ops that act as scheduling barriers in the SBT optimizer
#: (precise-state handoffs to the VMM must not be reordered across).
BARRIER_OPS = _ops_where(lambda info: info.barrier)

#: Micro-ops that read the architected flags.
FLAG_READING_UOPS = _ops_where(lambda info: info.reads_flags)


class VMService(enum.IntEnum):
    """VMCALL service indices (the VMM runtime's entry points)."""

    INTERP_ONE = 0     # interpret one complex architected instruction
    SYSCALL = 1        # architected INT 0x80 (subsumed by INTERP_ONE;
    #                    kept distinct for accounting)
    HALT = 2           # architected HLT
    PROFILE = 3        # software profiling counter bump (VM.soft BBT code)
