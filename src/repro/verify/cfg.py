"""Control-flow structure of an emitted micro-op stream.

Two partitions of the same stream matter to the rule-pack:

* **CFG basic blocks** — split at control transfers (``OpInfo.branch``)
  and at branch-target leaders.  The dataflow engine runs over these.
* **Fusion regions** — maximal runs of micro-ops containing no control
  transfer and no VMM barrier (``OpInfo.boundary``).  The fusion
  legality rules are scoped to these, mirroring the paper's "nothing
  moves across a region boundary".

A stream may join several translations as **segments** (``starts``:
the index of each one's first micro-op).  Nothing crosses a segment
boundary: no fallthrough edge, no branch target outside the branch's
own segment, no fused pair.

Branch displacement semantics match the native machine
(:mod:`repro.isa.fusible.machine`): ``target = offset_after_uop + imm``
for BC/JMP/JCSRC/JCSRT, in encoded bytes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.isa.fusible.encoding import Word
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp


class Located(NamedTuple):
    """A micro-op pinned to its position in the stream: a view, built on
    demand for reports, tests and the per-micro-op analyses."""

    index: int       # micro-op index
    offset: int      # byte offset of the first parcel
    uop: MicroOp
    word: Word       # its static facts


@dataclass
class BasicBlock:
    bid: int
    start: int                  # micro-ops ``start..end`` of the stream
    end: int
    cfg: "CFG" = field(repr=False, compare=False)
    succs: List[int] = field(default_factory=list)

    @property
    def locs(self) -> List[Located]:
        return self.cfg.located(self.start, self.end)


@dataclass
class CFG:
    """A stream as parallel ``words`` / ``offsets``, partitioned."""

    words: List[Word]
    offsets: List[int]
    bad_targets: List[int]      # control ops with off-stream targets
    transfers: List[int]        # every control transfer, in order
    total_bytes: int
    #: byte offset -> index of the micro-op starting there
    index_at_offset: Dict[int, int]
    blocks: List[BasicBlock] = field(default_factory=list)
    #: ``(first, end)`` block ids of each segment that has micro-ops
    segment_blocks: List[Tuple[int, int]] = field(default_factory=list)

    def located(self, start: int, end: int,
                uops: Optional[Sequence[MicroOp]] = None) -> List[Located]:
        """Micro-ops ``start..end`` as views (``uops``: theirs with
        ``x86_addr`` attached, where a word's own carries none)."""
        return [Located(index, self.offsets[index],
                        uops[index] if uops else self.words[index].uop,
                        self.words[index]) for index in range(start, end)]

    @property
    def locs(self) -> List[Located]:
        return self.located(0, len(self.words))

    @property
    def branches(self) -> List[Located]:
        return [self.located(index, index + 1)[0]
                for index in self.transfers]


def build_cfg(words: Sequence[Word], starts: Sequence[int] = (0,)) -> CFG:
    """Partition a stream -- its word-table entries -- into basic blocks
    and wire successor edges; ``starts`` (ascending, from 0) are its
    segments' first micro-ops.  The words are walked for the offsets and
    for the control transfers; what follows walks only those and the
    blocks.  Nothing is allocated per micro-op."""
    offsets = list(accumulate([word.shape & 0x7F for word in words],
                              initial=0))
    total_bytes = offsets.pop()
    transfers = [index for index, word in enumerate(words)
                 if word.info.branch]
    ends = [*starts[1:], len(words)]
    heads = set(starts)
    leaders = set(heads)
    relative: List[Tuple[int, int]] = []     # (branch, target offset)
    for index in transfers:
        leaders.add(index + 1)
        if words[index].info.relative:
            relative.append((index, offsets[index] + words[index].uop.imm
                             + (words[index].shape & 0x7F)))
    index_at_offset = dict(zip(offsets, range(len(offsets))))
    bad_targets: List[int] = []
    target_of: Dict[int, int] = {}      # branch index -> target index
    for index, target in relative:  # forward targets are indexed only now
        found = index_at_offset.get(target, -1)
        segment = bisect_right(starts, index) - 1
        if starts[segment] <= found < ends[segment]:
            target_of[index] = found
        else:
            bad_targets.append(index)
    leaders.update(target_of.values())

    cfg = CFG(words, offsets, bad_targets, transfers, total_bytes,
              index_at_offset)
    first = sorted(leaders - {len(words)})
    cfg.blocks = blocks = [
        BasicBlock(bid, start, end, cfg) for bid, (start, end)
        in enumerate(zip(first, first[1:] + [len(words)]))]
    block_at = {start: bid for bid, start in enumerate(first)}
    firsts = [block_at[start] for start in dict.fromkeys(starts)
              if start < len(words)]
    cfg.segment_blocks = list(zip(firsts, firsts[1:] + [len(blocks)]))
    for block in blocks:
        last = block.end - 1
        if last in target_of:
            block.succs.append(block_at[target_of[last]])
        # everything but a terminal or a JMP (BC/JCSRx fallthrough,
        # VMCALL resume, plain fall-into-leader) continues to the next
        # micro-op of its segment
        if not (words[last].info.terminal
                or words[last].uop.op is UOp.JMP
                or block.end in heads) \
                and block.bid + 1 < len(blocks):
            block.succs.append(block.bid + 1)
    return cfg


def fused_pairs(words: Sequence[Word], starts: Sequence[int] = (0,)
                ) -> List[Tuple[int, Optional[int]]]:
    """Indices of all (head, tail) pairs; tail is None for a head that
    is the last micro-op of its segment."""
    ends = {*starts[1:], len(words)}
    return [(index, None if index + 1 in ends else index + 1)
            for index, word in enumerate(words) if word.shape & 0x80]
