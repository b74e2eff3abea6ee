"""Shared emission helpers for the BBT and SBT translators.

Exit stubs have a fixed 12-byte shape so that chaining can patch them in
place::

    LUI   R29, hi19(x86_target)     ; 4 bytes  <- overwritten by JMP when
    ORI   R29, R29, lo13(target)    ; 4 bytes     the stub is chained
    VMEXIT R29                      ; 4 bytes

The VMM dispatcher receives the architected continuation address in R29
whether the exit was direct (built by the stub) or indirect (materialized
by the cracked body).

The stub and the profiling prologue have one shape each, so BBT emits
them as bytes: :func:`exit_code` and :func:`prologue_code` patch the
target / counter address into a ``Template`` traced once from the
micro-op builders below, which stay the one place either is written.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.isa.fusible.encoding import encode_stream
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp, VMService
from repro.isa.fusible.registers import (
    R_EXIT_TARGET,
    R_SCRATCH0,
    R_SCRATCH1,
    R_SCRATCH2,
)
from repro.isa.fusible.template import Template
from repro.isa.x86lite.instruction import Instruction
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond

#: Encoded size of a direct exit stub (LUI + ORI + VMEXIT).
EXIT_STUB_BYTES = 12

#: Encoded size of the software-profiling prologue.
PROFILE_PROLOGUE_BYTES = 36


def direct_exit_stub(x86_target: int, x86_addr: int) -> List[MicroOp]:
    """The three-micro-op patchable exit stub."""
    return [
        MicroOp(UOp.LUI, rd=R_EXIT_TARGET, imm=(x86_target >> 13) & 0x7FFFF,
                x86_addr=x86_addr),
        MicroOp(UOp.ORI, rd=R_EXIT_TARGET, rs1=R_EXIT_TARGET,
                imm=x86_target & 0x1FFF, x86_addr=x86_addr),
        MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET, x86_addr=x86_addr),
    ]


def indirect_exit(x86_addr: int) -> List[MicroOp]:
    """Exit through R29, which the cracked body already loaded."""
    return [MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET, x86_addr=x86_addr)]


def profile_prologue(counter_addr: int, block_entry: int) -> List[MicroOp]:
    """Software profiling embedded in BBT code (VM.soft / VM.be).

    Decrements the block's countdown counter; on reaching zero, calls into
    the VMM (``VMCALL PROFILE``) which applies the hot-threshold policy.
    Architected flags are preserved around the countdown arithmetic.
    """
    high = (counter_addr >> 13) & 0x7FFFF
    low = counter_addr & 0x1FFF
    return [
        MicroOp(UOp.RDFLG, rd=R_SCRATCH2, x86_addr=block_entry),
        MicroOp(UOp.LUI, rd=R_SCRATCH0, imm=high, x86_addr=block_entry),
        MicroOp(UOp.ORI, rd=R_SCRATCH0, rs1=R_SCRATCH0, imm=low,
                x86_addr=block_entry),
        MicroOp(UOp.LDW, rd=R_SCRATCH1, rs1=R_SCRATCH0, imm=0,
                x86_addr=block_entry),
        MicroOp(UOp.SUBI, rd=R_SCRATCH1, rs1=R_SCRATCH1, imm=1,
                setflags=True, x86_addr=block_entry),
        MicroOp(UOp.STW, rd=R_SCRATCH1, rs1=R_SCRATCH0, imm=0,
                x86_addr=block_entry),
        MicroOp(UOp.BC, cond=Cond.NE, imm=4, x86_addr=block_entry),
        MicroOp(UOp.VMCALL, imm=int(VMService.PROFILE),
                x86_addr=block_entry),
        MicroOp(UOp.WRFLG, rs1=R_SCRATCH2, x86_addr=block_entry),
    ]


def vmcall_complex(x86_addr: int) -> List[MicroOp]:
    """Punt a complex architected instruction to VMM software."""
    return [MicroOp(UOp.VMCALL, imm=int(VMService.INTERP_ONE),
                    x86_addr=x86_addr)]


def terminator(last: Instruction, cracked
               ) -> "Tuple[List[MicroOp], List[Tuple[str, Optional[int]]]]":
    """How a BBT block ends after ``last``: the micro-ops that lead up
    to its exits, and each exit as ``(kind, x86 target)`` in layout
    order -- a direct exit stub, or (target None) a VMEXIT through the
    R29 the head has loaded."""
    if cracked.cmplx:
        return vmcall_complex(last.addr), []
    head = list(cracked.uops)  # CTI computation part (push ret, R29, ...)
    if last.op is Op.JCC:
        head.append(MicroOp(UOp.BC, cond=Cond(last.cond), imm=EXIT_STUB_BYTES,
                            x86_addr=last.addr))
        return head, [("fallthrough", last.next_addr),
                      ("taken", last.target)]
    if last.is_control_transfer and last.target is not None:
        return head, [("jump", last.target)]
    if last.is_control_transfer:  # indirect JMP/CALL or RET
        return head, [("indirect", None)]
    # block ended at the size limit: fall through to the next instruction
    return head, [("fallthrough", last.next_addr)]


def side_entries(uops: List[MicroOp]
                 ) -> Iterator[Tuple[int, Optional[int]]]:
    """Yield (byte offset, x86_addr) for every VMCALL in the stream."""
    offset = 0
    for uop in uops:
        if uop.op is UOp.VMCALL:
            yield offset, uop.x86_addr
        offset += uop.length


_STUB = Template.of(lambda target: direct_exit_stub(target, 0), 0)
_INDIRECT = encode_stream(indirect_exit(0)), 1
_PROLOGUE = Template.of(lambda counter: profile_prologue(counter, 0), 0)

#: micro-ops in the profiling prologue, and where its VMCALL lies
PROFILE_PROLOGUE_UOPS = _PROLOGUE.uops
((PROFILE_VMCALL_OFFSET, _),) = side_entries(profile_prologue(0, 0))


def exit_code(x86_target: Optional[int]) -> Tuple[bytes, int]:
    """``(bytes, micro-ops)`` of one block exit: the direct stub to
    ``x86_target``, or (None) the VMEXIT through a loaded R29."""
    if x86_target is None:
        return _INDIRECT
    return _STUB.fill((x86_target,)), _STUB.uops


def prologue_code(counter_addr: int) -> bytes:
    """``encode_stream(profile_prologue(counter_addr, ...))``."""
    return _PROLOGUE.fill((counter_addr,))

