"""SBT — the optimizing hot superblock translator (stage 2 of Fig. 1b).

Translation of a formed superblock proceeds in four steps:

1. **Crack** every constituent instruction (shared cracker).
2. **Straighten** control flow: followed unconditional jumps vanish;
   followed conditional branches become a single BC to a side-exit stub
   (inverting the condition when the trace follows the taken direction).
3. **Optimize**: dead-flag elimination, redundant-load elimination with
   store-to-load forwarding (:mod:`repro.translator.redundancy`), then
   dependence-aware reordering with macro-op fusion
   (:mod:`repro.translator.fusion`).
4. **Emit**: body, tail (loop-back jump / exit stub / VMEXIT / VMCALL),
   and the side-exit stubs; fix up BC displacements; install in the SBT
   code cache with a side table for precise-state reconstruction.

Measured SBT costs from the paper (kept as configuration for the timing
layer): Δ_SBT = 1152 x86 instructions ≈ 1674 native instructions per hot
x86 instruction; optimized code runs p = 1.15–1.2x faster than BBT code.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Tuple

from repro.faults.plane import fault_point
from repro.isa.fusible.encoding import encode_stream, stream_length
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.memory.address_space import AddressSpace
from repro.translator.code_cache import (
    ExitStub,
    Translation,
    TranslationDirectory,
)
from repro.translator.cracker import crack
from repro.translator.emit import direct_exit_stub, indirect_exit, \
    vmcall_complex
from repro.translator.fusion import FusionStats, fuse_microops
from repro.translator.redundancy import eliminate_redundant_loads
from repro.translator.superblock import (
    DEFAULT_BIAS,
    MAX_SUPERBLOCK_INSTRS,
    Superblock,
    form_superblock,
)
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond

log = logging.getLogger("repro.translator")

#: Paper-measured SBT translation overheads (Section 3.2).
DELTA_SBT_X86_INSTRUCTIONS = 1152
DELTA_SBT_NATIVE_INSTRUCTIONS = 1674

#: Speedup of SBT-optimized code over BBT code (Section 3.2: 1.15-1.2).
SBT_OVER_BBT_SPEEDUP = 1.18


def invert_cond(cond: Cond) -> Cond:
    """The negated condition code (tttn LSB flips the sense)."""
    return Cond(int(cond) ^ 1)


class SuperblockTranslator:
    """Stage-2 translator: forms, optimizes and installs superblocks."""

    def __init__(self, directory: TranslationDirectory,
                 memory: AddressSpace,
                 max_instrs: int = MAX_SUPERBLOCK_INSTRS,
                 bias: float = DEFAULT_BIAS,
                 enable_fusion: bool = True,
                 enable_dead_flag_elim: bool = True,
                 enable_load_elim: bool = True) -> None:
        self.directory = directory
        self.memory = memory
        self.max_instrs = max_instrs
        self.bias = bias
        self.enable_fusion = enable_fusion
        self.enable_dead_flag_elim = enable_dead_flag_elim
        self.enable_load_elim = enable_load_elim
        # statistics
        self.superblocks_translated = 0
        self.instrs_translated = 0
        self.uops_emitted = 0
        self.pairs_fused = 0
        self.flags_eliminated = 0
        self.loads_eliminated = 0

    # -- public API ------------------------------------------------------------

    def translate(self, seed: int, edges) -> Translation:
        """Form a superblock at ``seed`` and install its translation."""
        fault_point("translate.sbt", entry=seed)
        superblock = form_superblock(self.memory, seed, edges,
                                     max_instrs=self.max_instrs,
                                     bias=self.bias)
        return self.translate_superblock(superblock)

    def translate_superblock(self, superblock: Superblock) -> Translation:
        body, bc_stub_indices, stub_plans, side_x86 = \
            self._build_body(superblock)

        if self.enable_dead_flag_elim:
            body, eliminated = eliminate_dead_flags(body)
            self.flags_eliminated += eliminated
        if self.enable_load_elim:
            body, load_stats = eliminate_redundant_loads(body)
            self.loads_eliminated += load_stats.loads_eliminated
        stats = FusionStats(uops_total=len(body))
        if self.enable_fusion:
            body, stats = fuse_microops(body)

        uops, exits = self._layout(body, bc_stub_indices, stub_plans,
                                   superblock)

        translation = Translation(
            entry=superblock.head, kind="sbt",
            native_addr=self.directory.sbt_cache.reserve(),
            x86_addrs=superblock.entries,
            instr_count=superblock.instr_count,
            uop_count=len(uops),
            fused_pairs=stats.pairs,
            uops=uops)
        for offset, kind, target in exits:
            translation.exits.append(ExitStub(
                stub_addr=translation.native_addr + offset, kind=kind,
                x86_target=target))
        offset = 0
        for uop in uops:
            if uop.op is UOp.VMCALL:
                translation.side_table[translation.native_addr + offset] = \
                    uop.x86_addr if uop.x86_addr is not None \
                    else superblock.head
            offset += uop.length

        self.directory.install(encode_stream(uops), translation)
        self.superblocks_translated += 1
        self.instrs_translated += superblock.instr_count
        self.uops_emitted += len(uops)
        self.pairs_fused += stats.pairs
        log.debug("sbt: %#x -> %#x (%d instr(s), %d uop(s), "
                  "%d fused pair(s))", superblock.head,
                  translation.native_addr, superblock.instr_count,
                  len(uops), stats.pairs)
        return translation

    # -- body construction ------------------------------------------------------

    def _build_body(self, superblock: Superblock):
        """Crack and straighten the trace.

        Returns ``(body, bc_stub_indices, stub_plans, side_x86)`` where
        ``stub_plans`` is an ordered list of ``(kind, x86_target)`` and
        ``bc_stub_indices`` maps each BC occurrence (in order) to the stub
        it must branch to.  Stub plan index 0 is reserved for a
        fall-through tail when the body runs off its end.
        """
        body: List[MicroOp] = []
        bc_stub_indices: List[int] = []
        stub_plans: List[Tuple[str, Optional[int]]] = []
        side_x86: List[int] = []

        final_block = superblock.blocks[-1]
        needs_leading_stub: Optional[Tuple[str, Optional[int]]] = None

        for block in superblock.blocks:
            is_final = block is final_block
            for instr in block.instrs[:-1]:
                body.extend(crack(instr).uops)
            last = block.last
            cracked = crack(last)

            if block.followed is not None:
                # the trace continues through this block's terminator
                body.extend(cracked.uops)
                if block.followed in ("taken", "fallthrough"):
                    if block.followed == "taken":
                        cond = invert_cond(last.cond)
                        side_target = last.next_addr
                    else:
                        cond = Cond(last.cond)
                        side_target = last.target
                    stub_plans.append(("side", side_target))
                    bc_stub_indices.append(len(stub_plans) - 1)
                    body.append(MicroOp(UOp.BC, cond=cond, imm=0,
                                        x86_addr=last.addr))
                # 'jump' and 'fallthrough-limit': straightened away
                if is_final:
                    if superblock.loops_to_head:
                        bc_stub_indices.append(-1)  # loop-back marker
                        body.append(MicroOp(UOp.JMP, imm=0,
                                            x86_addr=last.addr))
                    else:
                        # trace hit its size cap mid-flight: exit to the
                        # followed direction's continuation
                        if block.followed in ("taken", "jump"):
                            continuation = last.target
                        else:
                            continuation = last.next_addr
                        needs_leading_stub = ("fallthrough", continuation)
                continue

            # final block with an unfollowed terminator
            if cracked.cmplx:
                body.extend(vmcall_complex(last.addr))
            elif last.op is Op.JCC:
                stub_plans.append(("taken", last.target))
                bc_stub_indices.append(len(stub_plans) - 1)
                body.append(MicroOp(UOp.BC, cond=Cond(last.cond), imm=0,
                                    x86_addr=last.addr))
                body.extend(cracked.uops)
                needs_leading_stub = ("fallthrough", last.next_addr)
            elif last.is_control_transfer and last.target is not None:
                body.extend(cracked.uops)
                needs_leading_stub = ("jump", last.target)
            elif last.is_control_transfer:
                body.extend(cracked.uops)
                body.extend(indirect_exit(last.addr))
            else:
                body.extend(cracked.uops)
                needs_leading_stub = ("fallthrough", last.next_addr)

        if needs_leading_stub is not None:
            # the body runs off its end: its continuation stub must be
            # the first thing after the body
            stub_plans.insert(0, needs_leading_stub)
            bc_stub_indices = [index + 1 if index >= 0 else index
                               for index in bc_stub_indices]

        return body, bc_stub_indices, stub_plans, side_x86

    def _layout(self, body: List[MicroOp], bc_stub_indices: List[int],
                stub_plans: List[Tuple[str, Optional[int]]],
                superblock: Superblock):
        """Concatenate body + stubs; resolve BC/JMP displacements."""
        body_len = stream_length(body)
        stub_offsets: List[int] = []
        offset = body_len
        stub_uops: List[MicroOp] = []
        exits: List[Tuple[int, str, Optional[int]]] = []
        for kind, target in stub_plans:
            stub_offsets.append(offset)
            stub = direct_exit_stub(target, superblock.head)
            stub_uops.extend(stub)
            exit_kind = "taken" if kind == "side" else kind
            exits.append((offset, exit_kind, target))
            offset += stream_length(stub)

        # fix up control displacements by occurrence order
        fixups = list(bc_stub_indices)
        out: List[MicroOp] = []
        position = 0
        for uop in body:
            if uop.op in (UOp.BC, UOp.JMP) and fixups:
                stub_index = fixups.pop(0)
                target_offset = 0 if stub_index == -1 \
                    else stub_offsets[stub_index]
                displacement = target_offset - (position + uop.length)
                uop = MicroOp(uop.op, rd=uop.rd, rs1=uop.rs1, rs2=uop.rs2,
                              imm=displacement, cond=uop.cond,
                              fused=uop.fused, setflags=uop.setflags,
                              x86_addr=uop.x86_addr)
            out.append(uop)
            position += uop.length
        return out + stub_uops, exits


# -- dead flag elimination --------------------------------------------------------

def eliminate_dead_flags(uops: List[MicroOp]) -> Tuple[List[MicroOp], int]:
    """Clear ``.f`` bits (and drop pure compares) whose flags are dead.

    A flag write is live if some later micro-op reads flags, or an exit
    (branch, VMEXIT, VMCALL) is reached before the next flag write —
    architected flags must be precise at every exit.

    CF is tracked separately from ZF/SF/OF because INCF/DECF (the x86
    INC/DEC semantics) write the latter but pass CF through: an earlier
    full writer may still be live *for CF only* across them.
    """
    eliminated = 0
    out: List[MicroOp] = []
    cf_live = True    # flags are live-out at the end of the stream
    rest_live = True  # ZF/SF/OF
    for uop in reversed(uops):
        if uop.is_branch and uop.op is not UOp.BC:
            cf_live = rest_live = True  # exits need precise flags
        if uop.writes_flags:
            partial = uop.op in (UOp.INCF, UOp.DECF)
            if partial:
                if rest_live:
                    rest_live = False  # provides ZF/SF/OF; CF untouched
                else:
                    eliminated += 1
                    uop = _without_flags(uop)
            elif cf_live or rest_live:
                cf_live = rest_live = False
            else:
                eliminated += 1
                if uop.op in (UOp.CMP2, UOp.TEST2) or \
                        (uop.dest() is None and not uop.is_store):
                    continue  # pure compare: drop entirely
                uop = _without_flags(uop)
        if uop.reads_flags:
            cf_live = rest_live = True  # conservative: reads any flag
        out.append(uop)
    out.reverse()
    return out, eliminated


def _without_flags(uop: MicroOp) -> MicroOp:
    return MicroOp(uop.op, rd=uop.rd, rs1=uop.rs1, rs2=uop.rs2,
                   imm=uop.imm, cond=uop.cond, fused=uop.fused,
                   setflags=False, x86_addr=uop.x86_addr)
