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

from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp


class Located(NamedTuple):
    """A micro-op pinned to its position in the stream."""

    index: int       # micro-op index
    offset: int      # byte offset of the first parcel
    uop: MicroOp


def locate(uops: Sequence[MicroOp]) -> List[Located]:
    out: List[Located] = []
    offset = 0
    for index, uop in enumerate(uops):
        out.append(Located(index, offset, uop))
        offset += OP_INFO[uop.op].length
    return out


def branch_target_offset(loc: Located) -> Optional[int]:
    """Byte offset a relative control transfer lands on."""
    info = OP_INFO[loc.uop.op]
    if info.relative:
        return loc.offset + info.length + loc.uop.imm
    return None


@dataclass
class BasicBlock:
    bid: int
    locs: List[Located]
    succs: List[int] = field(default_factory=list)

    @property
    def first(self) -> Located:
        return self.locs[0]

    @property
    def last(self) -> Located:
        return self.locs[-1]


@dataclass
class CFG:
    locs: List[Located]
    blocks: List[BasicBlock]
    block_of: Dict[int, int]          # uop index -> block id
    bad_targets: List[Located]        # control ops with off-stream targets
    total_bytes: int = 0
    #: byte offset -> index of the micro-op starting there
    index_at_offset: Dict[int, int] = field(default_factory=dict)

    @property
    def entry(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None


def build_cfg(uops: Sequence[MicroOp]) -> CFG:
    """Partition a stream into basic blocks and wire successor edges."""
    locs = locate(uops)
    total = locs[-1].offset + locs[-1].uop.length if locs else 0
    index_at_offset = {loc.offset: loc.index for loc in locs}

    leaders = {0} if locs else set()
    bad_targets: List[Located] = []
    for loc in locs:
        target = branch_target_offset(loc)
        if target is not None:
            if target in index_at_offset:
                leaders.add(index_at_offset[target])
            else:
                bad_targets.append(loc)
        if OP_INFO[loc.uop.op].branch and loc.index + 1 < len(locs):
            leaders.add(loc.index + 1)

    blocks: List[BasicBlock] = []
    block_of: Dict[int, int] = {}
    current: List[Located] = []
    for loc in locs:
        if loc.index in leaders and current:
            blocks.append(BasicBlock(bid=len(blocks), locs=current))
            current = []
        current.append(loc)
        block_of[loc.index] = len(blocks)
    if current:
        blocks.append(BasicBlock(bid=len(blocks), locs=current))

    for block in blocks:
        last = block.last
        op = last.uop.op
        target = branch_target_offset(last)
        if target is not None and target in index_at_offset:
            block.succs.append(block_of[index_at_offset[target]])
        if OP_INFO[op].terminal or op is UOp.JMP:
            continue
        # everything else (BC/JCSRx fallthrough, VMCALL resume, plain
        # fall-into-leader) continues to the next micro-op
        if last.index + 1 < len(locs):
            block.succs.append(block_of[last.index + 1])

    return CFG(locs=locs, blocks=blocks, block_of=block_of,
               bad_targets=bad_targets, total_bytes=total,
               index_at_offset=index_at_offset)


def fused_pairs(locs: Sequence[Located]) -> List[Tuple[Located, Optional[Located]]]:
    """All (head, tail) pairs; tail is None for a dangling trailing head."""
    pairs: List[Tuple[Located, Optional[Located]]] = []
    for loc in locs:
        if loc.uop.fused:
            tail = locs[loc.index + 1] if loc.index + 1 < len(locs) else None
            pairs.append((loc, tail))
    return pairs
