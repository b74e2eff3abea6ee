"""x86lite — the architected (legacy) CISC ISA of the co-designed VM.

A faithful structural subset of IA-32: variable-length instructions
(1–16 bytes) with prefixes, one/two-byte opcodes, ModRM/SIB addressing,
8/32-bit displacements, 8/16/32-bit immediates, eight GPRs and the
CF/ZF/SF/OF flags.  See ``DESIGN.md`` §2 for why this substitutes for the
paper's x86.
"""

from repro.isa.x86lite.assembler import AssemblerError, assemble, \
    assemble_to_bytes
from repro.isa.x86lite.decoder import DecodeError, decode, decode_at
from repro.isa.x86lite.encoder import EncodeError, encode
from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond, Reg, cond_holds
from repro.isa.x86lite.semantics import (
    SYS_EXIT,
    SYS_PRINT_CHAR,
    SYS_PRINT_INT,
    SYS_PRINT_STR,
    SYSCALL_VECTOR,
    execute,
)
from repro.isa.x86lite.state import ArchException, X86State

__all__ = [
    "ArchException", "AssemblerError", "Cond", "DecodeError", "EncodeError",
    "ImmOperand", "Instruction", "MAX_INSTRUCTION_LENGTH",
    "MemOperand", "Op", "Reg", "RegOperand", "SYSCALL_VECTOR", "SYS_EXIT",
    "SYS_PRINT_CHAR", "SYS_PRINT_INT", "SYS_PRINT_STR", "X86State",
    "assemble", "assemble_to_bytes", "cond_holds", "decode", "decode_at",
    "encode", "execute",
]
