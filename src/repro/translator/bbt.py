"""BBT — the light-weight basic block translator (stage 1 of Fig. 1b).

Produces a straightforward, unoptimized translation of one dynamic basic
block: cracked micro-ops in architected order, bracketed by an optional
software-profiling prologue and patchable exit stubs.  No reordering, no
fusing — exactly the paper's "simple basic block translation ... placed in
a code cache for repeated reuse".

Layout of a BBT translation::

    [profiling prologue]            (VM.soft / VM.be only)
    [cracked body, per x86 instruction]
    [terminator]
        direct JMP/CALL      -> one exit stub
        JCC                  -> BC over the fall-through stub + two stubs
        indirect JMP/CALL/RET -> VMEXIT via R29
        complex instruction  -> VMCALL INTERP_ONE
        block-size limit     -> fall-through exit stub

The translator works bytes to bytes, as the paper's XLTx86 loop does
(Fig. 6a): the prologue, every instruction's cracked body, what the last
instruction ends the block with and every exit stub is a byte template
patched with that use's values (``templates.py``, ``emit.py``) -- no
``Instruction`` and no ``MicroOp`` is built for a shape seen before.
``Translation.uops`` is a view decoded from what was installed.
A block is a pure function of the bytes at its entry (:meth:`derive`),
installed with its counter (:meth:`install`) cold and warm alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.plane import fault_point
from repro.isa.x86lite.instruction import MAX_INSTRUCTION_LENGTH
from repro.memory.address_space import AddressSpace
from repro.translator.code_cache import (
    Translation,
    TranslationDirectory,
    extend_origins,
)
from repro.translator.emit import (
    PROFILE_PROLOGUE_BYTES,
    PROFILE_PROLOGUE_UOPS,
    PROFILE_VMCALL_OFFSET,
    exit_code,
    prologue_code,
)
from repro.translator.templates import fetch, shape_at

log = logging.getLogger("repro.translator")

#: Where per-translation profiling counters live (concealed VMM data).
COUNTER_AREA_BASE = 0x2800_0000


@dataclass(eq=False)
class Block:
    """A derived block: ``code`` lacks only a profiled block's prologue,
    which ``size`` and the exit and side-table offsets count."""

    entry: int
    code: bytes
    size: int
    origins: List[List]
    exits: List[Tuple[int, str, Optional[int]]]
    side: List[Tuple[int, int]]
    source: bytes                   # the x86 bytes read from ``entry``
    instr_count: int


class BasicBlockTranslator:
    """Stage-1 translator; installs translations into the directory."""

    def __init__(self, directory: TranslationDirectory,
                 memory: AddressSpace,
                 embed_profiling: bool = True,
                 hot_threshold: int = 8000,
                 max_block_instrs: int = 64,
                 xlt_unit=None) -> None:
        self.directory = directory
        self.memory = memory
        self.embed_profiling = embed_profiling
        self.hot_threshold = hot_threshold
        self.max_block_instrs = max_block_instrs
        #: optional XLTx86 backend unit (VM.be): the translator's
        #: decode/crack step runs through the hardware model instead of
        #: the software path, falling back to software for punted cases.
        self.xlt_unit = xlt_unit
        self._next_counter = COUNTER_AREA_BASE
        # statistics
        self.blocks_translated = 0
        self.instrs_translated = 0
        self.uops_emitted = 0

    # -- profiling counters ----------------------------------------------------

    def allocate_counter(self) -> int:
        """Allocate one armed countdown counter (a translated or a
        warm-loaded block's)."""
        addr = self._next_counter
        self._next_counter += 4
        self.memory.write_u32(addr, self.hot_threshold)
        return addr

    def reset_counter(self, translation: Translation,
                      value: Optional[int] = None) -> None:
        """Re-arm a translation's countdown counter (VMM policy)."""
        if translation.counter_addr is not None:
            self.memory.write_u32(translation.counter_addr,
                                  self.hot_threshold if value is None
                                  else value)

    # -- translation -----------------------------------------------------------

    def translate(self, entry: int) -> Translation:
        """Translate the basic block at architected address ``entry``."""
        fault_point("translate.bbt", entry=entry)
        translation = self.install(self.derive(entry, self.xlt_unit))
        self.blocks_translated += 1
        self.instrs_translated += translation.instr_count
        self.uops_emitted += translation.uop_count
        log.debug("bbt: %#x -> %#x (%d instr(s), %d uop(s))",
                  entry, translation.native_addr, translation.instr_count,
                  translation.uop_count)
        return translation

    def derive(self, entry: int, xlt_unit=None) -> Block:
        """The block at ``entry``, a pure function of memory,
        ``embed_profiling`` and ``max_block_instrs``; ``xlt_unit`` runs
        the body through XLTx86 (same bytes, its counters move)."""
        parts: List[bytes] = []             # encoded pieces, in order
        origins: List[List] = []            # [x86_addr, micro-ops] runs
        side: List[Tuple[int, int]] = []    # (VMCALL offset, x86_addr)
        size = 0                            # bytes laid out so far
        if self.embed_profiling:            # (installed with its counter)
            size = PROFILE_PROLOGUE_BYTES
            origins.append([entry, PROFILE_PROLOGUE_UOPS])
            side.append((PROFILE_VMCALL_OFFSET, entry))

        # body: every instruction before the one that ends the block;
        # ``read`` keeps the source bytes of the windows left behind
        pc, instr_count = entry, 1
        window, base, read = b"", entry, b""
        while True:
            offset = pc - base
            if offset + MAX_INSTRUCTION_LENGTH > len(window):
                read += window[:offset]
                window, base, offset = fetch(self.memory, pc), pc, 0
            shape = shape_at(window, offset, pc)
            if shape.cti or shape.cmplx \
                    or instr_count == self.max_block_instrs:
                break
            # VM.be runs the body through XLTx86, whose ``translate`` *is*
            # ``shape.body``: the timing layer charges it differently, and
            # a body over the 16-byte Fdst is punted back to software
            result = None if xlt_unit is None else xlt_unit.translate(
                window[offset:offset + MAX_INSTRUCTION_LENGTH], pc)
            if result is None or result.flag_cmplx:
                code, count = shape.body(window, offset, pc)
            else:
                code, count = result.uop_bytes, result.uop_count
            parts.append(code)
            size += len(code)
            extend_origins(origins, pc, count)
            pc += shape.length
            instr_count += 1

        # terminator: what ends the block after this instruction
        code, count, vmcalls, stubs = shape.ending(window, offset, pc)
        side.extend((size + at, pc) for at in vmcalls)
        parts.append(code)
        size += len(code)
        exits = []
        for kind, x86_target in stubs:
            exits.append((size, kind, x86_target))
            code, stub_uops = exit_code(x86_target)
            parts.append(code)
            size += len(code)
            count += stub_uops
        extend_origins(origins, pc, count)
        return Block(entry, b"".join(parts), size, origins, exits, side,
                     read + window[:offset + shape.length], instr_count)

    def install(self, block: Block) -> Translation:
        """Install a derived block: a profiled one with its counter's
        prologue, relocated against the cache."""
        code, counter_addr = block.code, None
        if self.embed_profiling:
            counter_addr = self.allocate_counter()
            code = prologue_code(counter_addr) + code
        translation = Translation(
            entry=block.entry, kind="bbt",
            x86_addrs=[block.entry], instr_count=block.instr_count,
            uop_count=sum(run[1] for run in block.origins),
            counter_addr=counter_addr,
            origins=block.origins, source=[[block.entry, block.source]])
        self.directory.install(code, translation, block.exits, block.side)
        return translation

