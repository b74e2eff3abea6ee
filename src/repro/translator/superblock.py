"""Superblock formation from runtime profiles.

Once a block entry crosses the hot threshold, the VMM organizes the hot
region into a *superblock* (Hwu et al.): a single-entry, multiple-exit
straight-line trace that follows the biased direction of each conditional
branch recorded by the edge profile.  Side exits cover the unlikely
directions; if the trace closes back on its own head, the superblock ends
in a native loop-back jump and the hot loop runs entirely inside the code
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.x86lite.instruction import MAX_INSTRUCTION_LENGTH
from repro.isa.x86lite.opcodes import Op
from repro.translator.templates import Shape, fetch, shape_at

#: Default superblock size cap, in architected instructions.
MAX_SUPERBLOCK_INSTRS = 200

#: A conditional edge must carry at least this fraction of outgoing flow
#: for the trace to follow it.
DEFAULT_BIAS = 0.6

#: Size cap of one constituent basic block, in architected instructions.
MAX_BLOCK_INSTRS = 64


@dataclass
class SuperblockBlock:
    """One constituent basic block of a superblock trace."""

    entry: int
    #: ``(shape, window, offset, addr)`` of each instruction
    sites: List[Tuple[Shape, bytes, int, int]]
    #: what ends a BBT block after the last one (``Shape.ending``): its
    #: bytes, and each exit kind -> x86 target (None: through R29)
    head: bytes
    exits: Dict[str, Optional[int]]
    #: how the trace leaves this block: 'taken'/'fallthrough' (followed
    #: JCC), 'jump' (direct JMP straightened away), 'fallthrough-limit'
    #: (size-limited block), or None for the final block.
    followed: Optional[str] = None

    @property
    def last(self) -> Shape:
        return self.sites[-1][0]


@dataclass
class Superblock:
    """A formed superblock trace, ready for the SBT."""

    head: int
    blocks: List[SuperblockBlock] = field(default_factory=list)
    #: True when the trace closes on its head; otherwise the final
    #: block's own terminator decides the tail.
    loops_to_head: bool = False

    @property
    def entries(self) -> List[int]:
        return [block.entry for block in self.blocks]

    @property
    def instr_count(self) -> int:
        return sum(len(block.sites) for block in self.blocks)

    @property
    def side_exit_count(self) -> int:
        return sum(1 for block in self.blocks
                   if block.followed in ("taken", "fallthrough"))


def block_at(memory, entry: int) -> SuperblockBlock:
    """The dynamic basic block at ``entry``, walked by shape over fetched
    windows as BBT walks it: it ends at (and includes) the first control
    transfer or complex instruction, or after ``MAX_BLOCK_INSTRS``."""
    sites: List[Tuple[Shape, bytes, int, int]] = []
    pc, window, base = entry, b"", entry
    while True:
        offset = pc - base
        if offset + MAX_INSTRUCTION_LENGTH > len(window):
            window, base, offset = fetch(memory, pc), pc, 0
        shape = shape_at(window, offset, pc)
        sites.append((shape, window, offset, pc))
        if shape.cti or shape.cmplx or len(sites) == MAX_BLOCK_INSTRS:
            head, _count, _vmcalls, stubs = shape.ending(window, offset, pc)
            return SuperblockBlock(entry, sites, head, dict(stubs))
        pc += shape.length


def form_superblock(memory, seed: int, edges,
                    max_instrs: int = MAX_SUPERBLOCK_INSTRS,
                    bias: float = DEFAULT_BIAS,
                    max_blocks: int = 32) -> Superblock:
    """Grow a superblock from ``seed`` along the profiled hot path.

    ``edges`` provides ``biased_successor(entry, bias)`` (an
    :class:`~repro.vmm.profiling.EdgeProfile`, or anything with that
    surface; the hardware-profiled VM.fe passes a static fallback that
    returns None, yielding single-block superblocks extended only through
    unconditional jumps).
    """
    superblock = Superblock(head=seed)
    visited = set()
    pc = seed

    while len(superblock.blocks) < max_blocks and \
            superblock.instr_count < max_instrs:
        block = block_at(memory, pc)
        superblock.blocks.append(block)
        visited.add(pc)

        last, exits = block.last, block.exits
        if last.cmplx:
            break
        if last.op in (Op.RET, Op.CALL) or "indirect" in exits:
            break  # calls/returns/indirects end the trace

        if last.op is Op.JMP:
            next_pc = exits["jump"]
            block.followed = "jump"
        elif last.op is Op.JCC:
            biased = edges.biased_successor(pc, bias)
            if biased == exits["taken"]:
                block.followed = "taken"
                next_pc = exits["taken"]
            elif biased == exits["fallthrough"]:
                block.followed = "fallthrough"
                next_pc = exits["fallthrough"]
            else:
                block.followed = None
                break
        elif not last.cti:
            # block hit the scan size limit; continue straight through
            block.followed = "fallthrough-limit"
            next_pc = exits["fallthrough"]
        else:  # pragma: no cover - cases above are exhaustive
            break

        if next_pc == superblock.head:
            superblock.loops_to_head = True
            break
        if next_pc in visited:
            # Re-entering the middle of the trace (a non-head cycle):
            # stop here and let the block's own terminator produce a
            # normal exit stub toward the revisited address.
            block.followed = None
            break
        pc = next_pc

    return superblock
