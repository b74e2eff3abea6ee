"""Control-flow structure of an emitted micro-op stream.

Two partitions of the same stream matter to the rule-pack:

* **CFG basic blocks** — split at control transfers (``OpInfo.branch``)
  and at branch-target leaders.  The dataflow engine runs over these.
* **Fusion regions** — maximal runs of micro-ops containing no control
  transfer and no VMM barrier (``OpInfo.boundary``).  The fusion
  legality rules are scoped to these, mirroring the paper's "nothing
  moves across a region boundary".

Branch displacement semantics match the native machine
(:mod:`repro.isa.fusible.machine`): ``target = offset_after_uop + imm``
for BC/JMP/JCSRC/JCSRT, in encoded bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.fusible.encoding import Word
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp


class Located(NamedTuple):
    """A micro-op pinned to its position in the stream."""

    index: int       # micro-op index
    offset: int      # byte offset of the first parcel
    uop: MicroOp
    word: Word       # its static facts


@dataclass
class BasicBlock:
    bid: int
    locs: List[Located]
    succs: List[int] = field(default_factory=list)


@dataclass
class CFG:
    locs: List[Located]
    blocks: List[BasicBlock]
    bad_targets: List[Located]        # control ops with off-stream targets
    branches: List[Located]           # every control transfer, in order
    total_bytes: int = 0
    #: byte offset -> index of the micro-op starting there
    index_at_offset: Dict[int, int] = field(default_factory=dict)


def build_cfg(uops: Sequence[MicroOp],
              words: Optional[Sequence[Word]] = None) -> CFG:
    """Partition a stream into basic blocks and wire successor edges.

    One pass over the micro-ops locates them, indexes their offsets and
    finds the leaders; what follows walks only branches and blocks.
    ``words``: each micro-op's word-table entry, where a context has it."""
    locs: List[Located] = []
    index_at_offset: Dict[int, int] = {}
    leaders = {0}
    branches: List[Located] = []
    relative: List[Tuple[Located, int]] = []     # (branch, target offset)
    offset = 0
    for index, (uop, word) in enumerate(
            zip(uops, words or map(Word, uops))):
        info = word.info
        loc = Located(index, offset, uop, word)
        locs.append(loc)
        index_at_offset[offset] = index
        offset += info.length
        if info.branch:
            leaders.add(index + 1)
            branches.append(loc)
        if info.relative:
            relative.append((loc, offset + uop.imm))
    bad_targets: List[Located] = []
    target_of: Dict[int, int] = {}      # branch index -> target index
    for loc, target in relative:    # forward targets are indexed only now
        if target in index_at_offset:
            target_of[loc.index] = index_at_offset[target]
        else:
            bad_targets.append(loc)
    leaders.update(target_of.values())

    starts = sorted(leaders - {len(locs)})
    blocks = [BasicBlock(bid, locs[start:end]) for bid, (start, end)
              in enumerate(zip(starts, starts[1:] + [len(locs)]))]
    block_at = {start: bid for bid, start in enumerate(starts)}
    for block in blocks:
        last = block.locs[-1]
        info = last.word.info
        if last.index in target_of:
            block.succs.append(block_at[target_of[last.index]])
        # everything but a terminal or a JMP (BC/JCSRx fallthrough,
        # VMCALL resume, plain fall-into-leader) continues to the next
        # micro-op
        if not (info.terminal or last.uop.op is UOp.JMP) \
                and block.bid + 1 < len(blocks):
            block.succs.append(block.bid + 1)
    return CFG(locs=locs, blocks=blocks, bad_targets=bad_targets,
               branches=branches, total_bytes=offset,
               index_at_offset=index_at_offset)


def fused_pairs(locs: Sequence[Located]) -> List[Tuple[Located, Optional[Located]]]:
    """All (head, tail) pairs; tail is None for a dangling trailing head."""
    pairs: List[Tuple[Located, Optional[Located]]] = []
    for loc in locs:
        if loc.uop.fused:
            tail = locs[loc.index + 1] if loc.index + 1 < len(locs) else None
            pairs.append((loc, tail))
    return pairs
