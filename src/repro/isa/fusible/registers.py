"""Register conventions of the fusible implementation ISA.

The implementation ISA has 32 general registers and 32 x 128-bit F
registers (the FP/media file that the XLTx86 assist uses for instruction
bytes and micro-op output).  The register convention below is part of the
hardware/software co-design contract:

====  =======================================================
R0-R7   map the architected x86lite GPRs (EAX..EDI), in order
R8-R15  VMM temporaries addressable by 16-bit micro-ops
R16-R27 VMM temporaries (32-bit micro-ops only)
R28     VMM: translation-time scratch (Rcode$ in the HAloop)
R29     VMM: chaining / exit-target scratch
R30     VMM: architected-PC shadow (Rx86pc in the HAloop)
R31     hardwired zero
====  =======================================================
"""

from __future__ import annotations

#: Number of general registers in the implementation ISA.
NREGS = 32

#: Number of 128-bit F registers.
NFREGS = 32

#: Bytes per F register (holds a maximal x86lite instruction).
FREG_BYTES = 16

#: Number of architected GPRs mapped into the implementation file.
ARCH_REG_COUNT = 8

#: Temporaries reachable from the 16-bit micro-op format (R0..R15).
SHORT_FORM_REG_LIMIT = 16

# VMM-reserved registers (see module docstring).
R_SCRATCH0 = 16
R_SCRATCH1 = 17
R_SCRATCH2 = 18
R_CODE_PTR = 28
R_EXIT_TARGET = 29
R_X86_PC = 30
R_ZERO = 31


def reg_name(index: int) -> str:
    """Symbolic name for a register index."""
    arch_names = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")
    if 0 <= index < ARCH_REG_COUNT:
        return f"r{index}/{arch_names[index]}"
    if index == R_ZERO:
        return "rzero"
    if index == R_X86_PC:
        return "rx86pc"
    if index == R_EXIT_TARGET:
        return "rexit"
    if index == R_CODE_PTR:
        return "rcode"
    return f"r{index}"
