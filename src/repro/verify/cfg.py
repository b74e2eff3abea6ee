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


def build_cfg(words: Sequence) -> CFG:
    """Partition a stream -- its word-table entries or, a ``Word`` being
    made of each, its micro-ops -- into basic blocks and wire successor
    edges.  The words are walked for the offsets and for the control
    transfers; what follows walks only those and the blocks.  Nothing
    is allocated per micro-op."""
    if words and not isinstance(words[0], Word):
        words = [Word(uop) for uop in words]
    offsets = list(accumulate([word.shape & 0x7F for word in words],
                              initial=0))
    total_bytes = offsets.pop()
    transfers = [index for index, word in enumerate(words)
                 if word.info.branch]
    leaders = {0}
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
        if target in index_at_offset:
            target_of[index] = index_at_offset[target]
        else:
            bad_targets.append(index)
    leaders.update(target_of.values())

    cfg = CFG(words, offsets, bad_targets, transfers, total_bytes,
              index_at_offset)
    starts = sorted(leaders - {len(words)})
    cfg.blocks = blocks = [
        BasicBlock(bid, start, end, cfg) for bid, (start, end)
        in enumerate(zip(starts, starts[1:] + [len(words)]))]
    block_at = {start: bid for bid, start in enumerate(starts)}
    for block in blocks:
        last = block.end - 1
        if last in target_of:
            block.succs.append(block_at[target_of[last]])
        # everything but a terminal or a JMP (BC/JCSRx fallthrough,
        # VMCALL resume, plain fall-into-leader) continues to the next
        # micro-op
        if not (words[last].info.terminal
                or words[last].uop.op is UOp.JMP) \
                and block.bid + 1 < len(blocks):
            block.succs.append(block.bid + 1)
    return cfg


def fused_pairs(words: Sequence[Word]) -> List[Tuple[int, Optional[int]]]:
    """Indices of all (head, tail) pairs; tail is None for a dangling
    trailing head."""
    last = len(words) - 1
    return [(index, index + 1 if index < last else None)
            for index, word in enumerate(words) if word.shape & 0x80]
