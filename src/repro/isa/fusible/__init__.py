"""The fusible implementation ISA (native ISA of the co-designed VM).

16-bit/32-bit micro-ops with a fusible head bit, 32 general registers
(R0–R7 shadow the architected GPRs), 32 x 128-bit F registers, and the
XLTx86 translation-assist instruction.  See ``DESIGN.md`` S4.
"""

from repro.isa.fusible.encoding import (
    UopDecodeError,
    UopEncodeError,
    decode_stream,
    decode_uop,
    encode_stream,
    encode_uop,
    imm13_in_range,
    stream_length,
)
from repro.isa.fusible.machine import (
    ExitEvent,
    FusibleMachine,
    NativeBudgetExhausted,
    NativeMachineError,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import (
    BARRIER_OPS,
    BRANCH_OPS,
    FUSIBLE_HEAD_OPS,
    FUSIBLE_TAIL_OPS,
    LOAD_OPS,
    LONG_LATENCY_OPS,
    MEMORY_OPS,
    SHORT_OPS,
    STORE_OPS,
    UOp,
    VMService,
)
from repro.isa.fusible.registers import (
    ARCH_REG_COUNT,
    FREG_BYTES,
    NFREGS,
    NREGS,
    R_CODE_PTR,
    R_EXIT_TARGET,
    R_SCRATCH0,
    R_SCRATCH1,
    R_SCRATCH2,
    R_X86_PC,
    R_ZERO,
    reg_name,
)

__all__ = [
    "ARCH_REG_COUNT", "BARRIER_OPS", "BRANCH_OPS", "ExitEvent", "FREG_BYTES",
    "FUSIBLE_HEAD_OPS", "FUSIBLE_TAIL_OPS", "FusibleMachine", "LOAD_OPS",
    "LONG_LATENCY_OPS", "MEMORY_OPS", "MicroOp", "NFREGS", "NREGS",
    "NativeBudgetExhausted", "NativeMachineError", "R_CODE_PTR",
    "R_EXIT_TARGET", "R_SCRATCH0", "R_SCRATCH1", "R_SCRATCH2",
    "R_X86_PC", "R_ZERO",
    "SHORT_OPS", "STORE_OPS", "UOp", "UopDecodeError", "UopEncodeError",
    "VMService", "decode_stream", "decode_uop", "encode_stream",
    "encode_uop", "imm13_in_range", "reg_name", "stream_length",
]
