"""SBT — the optimizing hot superblock translator (stage 2 of Fig. 1b).

Translation of a formed superblock proceeds in four steps:

1. **Gather** each constituent instruction's cracked body as the bytes
   the template table serves BBT too (``Shape.body``; a complex one's
   VMCALL is its ``Shape.ending``), read through the VM's word table.
2. **Straighten** control flow: followed unconditional jumps vanish;
   followed conditional branches become a single BC to a side-exit stub
   (inverting the condition when the trace follows the taken direction).
3. **Optimize** the words: dead-flag elimination, redundant-load
   elimination with store-to-load forwarding
   (:mod:`repro.translator.redundancy`), then dependence-aware
   reordering with macro-op fusion (:mod:`repro.translator.fusion`).
   A pass builds and encodes a ``MicroOp`` only for a word it changes.
4. **Emit**: body, tail (loop-back jump / exit stub / VMEXIT / VMCALL),
   and the side-exit stubs; fix up BC displacements; install the bytes
   and their ``origins`` in the SBT code cache with a side table for
   precise-state reconstruction.

Steps 1-4 up to the install are :meth:`SuperblockTranslator.build`,
which the warm loader shares: a persisted superblock is its path, which
the loader re-forms (:meth:`SuperblockTranslator.form`) and builds.

Measured SBT costs from the paper (kept as configuration for the timing
layer): Δ_SBT = 1152 x86 instructions ≈ 1674 native instructions per hot
x86 instruction; optimized code runs p = 1.15–1.2x faster than BBT code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.plane import fault_point
from repro.isa.fusible.encoding import stream_words, word_of
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.memory.address_space import AddressSpace
from repro.translator.code_cache import (
    Translation,
    TranslationDirectory,
    extend_origins,
)
from repro.translator.emit import exit_code
from repro.translator.fusion import FusionStats, Item, fuse_microops
from repro.translator.redundancy import eliminate_redundant_loads
from repro.translator.superblock import (
    DEFAULT_BIAS,
    MAX_SUPERBLOCK_INSTRS,
    Superblock,
    form_superblock,
)
from repro.isa.x86lite.registers import Cond

log = logging.getLogger("repro.translator")


@dataclass(eq=False)
class Built:
    """A superblock as :meth:`SuperblockTranslator.build` makes it: its
    code, its translation not yet placed, its exits and side entries as
    offsets, and what its passes removed."""

    code: bytes
    translation: Translation
    exits: List[Tuple[int, str, Optional[int]]]
    side: List[Tuple[int, int]]
    flags_eliminated: int
    loads_eliminated: int

    @property
    def size(self) -> int:
        return len(self.code)


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
        return self.translate_superblock(self.form(seed, edges))

    def form(self, seed: int, edges) -> Superblock:
        """The superblock at ``seed`` along ``edges``' biased successors,
        under this translator's size cap and bias."""
        return form_superblock(self.memory, seed, edges,
                               max_instrs=self.max_instrs, bias=self.bias)

    def translate_superblock(self, superblock: Superblock) -> Translation:
        """Build ``superblock``, install it and count it."""
        built = self.build(superblock)
        translation = self.install(built)
        self.superblocks_translated += 1
        self.instrs_translated += translation.instr_count
        self.uops_emitted += translation.uop_count
        self.pairs_fused += translation.fused_pairs
        self.flags_eliminated += built.flags_eliminated
        self.loads_eliminated += built.loads_eliminated
        log.debug("sbt: %#x -> %#x (%d instr(s), %d uop(s), "
                  "%d fused pair(s))", superblock.head, translation.native_addr,
                  translation.instr_count, translation.uop_count,
                  translation.fused_pairs)
        return translation

    def install(self, built: Built) -> Translation:
        """Place and link a built superblock; no counter moves."""
        self.directory.install(built.code, built.translation, built.exits,
                               built.side)
        return built.translation

    def build(self, superblock: Superblock) -> Built:
        """Gather, straighten, optimize and lay out ``superblock``: its
        code and its translation, ready for :meth:`install`.  The cold
        path and the warm loader share it; no counter moves here."""
        body, bc_stub_indices, stub_plans = self._build_body(superblock)
        flags_eliminated = loads_eliminated = 0
        if self.enable_dead_flag_elim:
            body, flags_eliminated = eliminate_dead_flags(body)
        if self.enable_load_elim:
            body, load_stats = eliminate_redundant_loads(body)
            loads_eliminated = load_stats.loads_eliminated
        stats = FusionStats(uops_total=len(body))
        if self.enable_fusion:
            body, stats = fuse_microops(body)

        code, origins, exits, side = self._layout(body, bc_stub_indices,
                                                  stub_plans, superblock)
        translation = Translation(
            entry=superblock.head, kind="sbt",
            x86_addrs=superblock.entries,
            instr_count=superblock.instr_count,
            uop_count=sum(run[1] for run in origins),
            fused_pairs=stats.pairs, loops=superblock.loops_to_head,
            origins=origins, source=_source(superblock, origins))
        return Built(code, translation, exits, side, flags_eliminated,
                     loads_eliminated)

    # -- body construction ------------------------------------------------------

    def _build_body(self, superblock: Superblock):
        """Gather and straighten the trace.

        Returns ``(body, bc_stub_indices, stub_plans)``: ``body`` holds
        the ``(word, x86_addr)`` of each micro-op, ``stub_plans`` is an
        ordered list of ``(kind, x86_target)`` and ``bc_stub_indices``
        maps each BC occurrence (in order) to the stub it must branch to.
        Stub plan index 0 is reserved for a fall-through tail when the
        body runs off its end.
        """
        words = self.directory.words
        body: List[Item] = []
        bc_stub_indices: List[int] = []
        stub_plans: List[Tuple[str, Optional[int]]] = []

        def add(sites) -> None:
            # the cracked bodies of ``sites``, read in one walk
            parts, addrs = [], []
            for shape, window, offset, pc in sites:
                code, count = shape.body(window, offset, pc)
                parts.append(code)
                addrs += [pc] * count
            body.extend(zip(stream_words(b"".join(parts), words), addrs))

        def branch(op: UOp, x86_addr: int, cond=None) -> None:
            # its displacement is fixed up in ``_layout``
            body.append((word_of(MicroOp(op, cond=cond)), x86_addr))

        final_block = superblock.blocks[-1]
        needs_leading_stub: Optional[Tuple[str, Optional[int]]] = None

        for block in superblock.blocks:
            last, pc, exits = block.last, block.sites[-1][3], block.exits
            if block.followed is not None:
                # the trace continues through this block's terminator
                add(block.sites)
                if block.followed in ("taken", "fallthrough"):
                    if block.followed == "taken":
                        cond = invert_cond(last.cond)
                        side_target = exits["fallthrough"]
                    else:
                        cond = last.cond
                        side_target = exits["taken"]
                    stub_plans.append(("side", side_target))
                    bc_stub_indices.append(len(stub_plans) - 1)
                    branch(UOp.BC, pc, cond)
                # 'jump' and 'fallthrough-limit': straightened away
                if block is final_block:
                    if superblock.loops_to_head:
                        bc_stub_indices.append(-1)  # loop-back marker
                        branch(UOp.JMP, pc)
                    else:
                        # trace hit its size cap mid-flight: exit to the
                        # followed direction's continuation
                        if block.followed in ("taken", "jump"):
                            continuation = exits[block.followed]
                        else:
                            continuation = exits["fallthrough"]
                        needs_leading_stub = ("fallthrough", continuation)
                continue

            # final block with an unfollowed terminator
            add(block.sites[:-1])
            if "taken" in exits:        # a JCC
                stub_plans.append(("taken", exits["taken"]))
                bc_stub_indices.append(len(stub_plans) - 1)
                branch(UOp.BC, pc, last.cond)
                add(block.sites[-1:])
                needs_leading_stub = ("fallthrough", exits["fallthrough"])
                continue
            # what ends a BBT block there: the cracked body, or a complex
            # instruction's VMCALL; then its one exit, if any
            tail = block.head
            if "indirect" in exits:
                tail += exit_code(None)[0]
            elif exits:
                (needs_leading_stub,) = exits.items()
            body.extend((word, pc) for word in stream_words(tail, words))

        if needs_leading_stub is not None:
            # the body runs off its end: its continuation stub must be
            # the first thing after the body
            stub_plans.insert(0, needs_leading_stub)
            bc_stub_indices = [index + 1 if index >= 0 else index
                               for index in bc_stub_indices]

        return body, bc_stub_indices, stub_plans

    def _layout(self, body: List[Item], bc_stub_indices: List[int],
                stub_plans: List[Tuple[str, Optional[int]]],
                superblock: Superblock):
        """Concatenate body + stubs; resolve BC/JMP displacements: the
        code, its origins, exits as ``(offset, kind, x86 target)`` and
        each VMCALL as ``(offset, x86_addr)``."""
        offset = sum(len(word.code) for word, _x86_addr in body)
        stub_offsets: List[int] = []
        stub_codes: List[bytes] = []
        exits: List[Tuple[int, str, Optional[int]]] = []
        for kind, target in stub_plans:
            stub_offsets.append(offset)
            code, _count = exit_code(target)
            stub_codes.append(code)
            exits.append((offset, "taken" if kind == "side" else kind,
                          target))
            offset += len(code)

        # fix up control displacements by occurrence order
        fixups = list(bc_stub_indices)
        parts: List[bytes] = []
        origins: List[List] = []
        side: List[Tuple[int, int]] = []
        position = 0
        for word, x86_addr in body:
            uop = word.uop
            if uop.op in (UOp.BC, UOp.JMP) and fixups:
                stub_index = fixups.pop(0)
                target_offset = 0 if stub_index == -1 \
                    else stub_offsets[stub_index]
                word = word_of(MicroOp(
                    uop.op, uop.rd, uop.rs1, uop.rs2,
                    target_offset - (position + len(word.code)), uop.cond,
                    uop.fused, uop.setflags))
            elif uop.op is UOp.VMCALL:
                side.append((position, x86_addr))
            parts.append(word.code)
            extend_origins(origins, x86_addr, 1)
            position += len(word.code)
        for code in stub_codes:
            parts.append(code)
            extend_origins(origins, superblock.head, 3)
        return b"".join(parts), origins, exits, side


def _source(superblock: Superblock, origins: List[List]) -> List[List]:
    """``[addr, bytes]`` runs of the instructions ``origins`` still
    covers (a pass may drop one's last micro-op; blocks may overlap),
    each sliced from the window the trace read it from."""
    covered = {addr for addr, _count in origins}
    sites = {pc: window[offset:offset + shape.length]
             for block in superblock.blocks
             for shape, window, offset, pc in block.sites if pc in covered}
    source: List[List] = []
    for pc, data in sorted(sites.items()):
        if source and source[-1][0] + len(source[-1][1]) == pc:
            source[-1][1] += data
        else:
            source.append([pc, data])
    return source


# -- dead flag elimination --------------------------------------------------------

def eliminate_dead_flags(body: List[Item]) -> Tuple[List[Item], int]:
    """Clear ``.f`` bits (and drop pure compares) whose flags are dead,
    over a body of ``(word, x86_addr)`` items; a cleared micro-op's word
    is ``word_of`` it.

    A flag write is live if some later micro-op reads flags, or an exit
    (branch, VMEXIT, VMCALL) is reached before the next flag write —
    architected flags must be precise at every exit.

    CF is tracked separately from ZF/SF/OF because INCF/DECF (the x86
    INC/DEC semantics) write the latter but pass CF through: an earlier
    full writer may still be live *for CF only* across them.
    """
    eliminated = 0
    out: List[Item] = []
    cf_live = True    # flags are live-out at the end of the stream
    rest_live = True  # ZF/SF/OF
    for item in reversed(body):
        uop = item[0].uop
        if uop.is_branch and uop.op is not UOp.BC:
            cf_live = rest_live = True  # exits need precise flags
        if uop.writes_flags:
            partial = uop.op in (UOp.INCF, UOp.DECF)
            if partial:
                if rest_live:
                    rest_live = False  # provides ZF/SF/OF; CF untouched
                else:
                    eliminated += 1
                    item = _without_flags(item)
            elif cf_live or rest_live:
                cf_live = rest_live = False
            else:
                eliminated += 1
                if uop.op in (UOp.CMP2, UOp.TEST2) or \
                        (uop.dest() is None and not uop.is_store):
                    continue  # pure compare: drop entirely
                item = _without_flags(item)
        if uop.reads_flags:
            cf_live = rest_live = True  # conservative: reads any flag
        out.append(item)
    out.reverse()
    return out, eliminated


def _without_flags(item: Item) -> Item:
    uop = item[0].uop
    return word_of(MicroOp(uop.op, uop.rd, uop.rs1, uop.rs2, uop.imm,
                           uop.cond, uop.fused, False)), item[1]
