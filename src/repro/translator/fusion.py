"""Macro-op fusion — the SBT's signature optimization (Hu & Smith).

Dependent pairs of single-cycle micro-ops are reordered to be adjacent and
marked with the fusible head bit; the macro-op pipeline then processes each
pair as a single entity through issue, execution (collapsed 3-input ALU)
and retirement.  Pairs may span original x86 instruction boundaries — the
property that distinguishes the co-designed fusing from conventional x86
micro-op fusion, and the source of its IPC advantage.

Legality model:

* The *head* must be a single-cycle ALU op producing a register; the
  *tail* must consume that register.
* A pair carries at most three distinct source registers (the collapsed
  ALU has three read ports).
* The tail is hoisted up to sit behind its head; hoisting must not cross
  a micro-op it conflicts with (register, flag, or memory dependences).
* Control transfers and VMM barriers delimit *regions*; nothing moves
  across them, which also preserves precise architected state at every
  side exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.fusible.encoding import Word, word_of
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp
from repro.isa.fusible.registers import NREGS

#: How far ahead (in micro-ops) the pairing pass searches for a tail.
DEFAULT_WINDOW = 8

#: Read-port budget of the collapsed macro-op ALU.
MAX_PAIR_SOURCES = 3


@dataclass
class FusionStats:
    """Outcome accounting for one fusion pass."""

    regions: int = 0
    pairs: int = 0
    uops_total: int = 0
    tails_hoisted: int = 0

    @property
    def fused_fraction(self) -> float:
        """Fraction of micro-ops covered by fused pairs."""
        if not self.uops_total:
            return 0.0
        return 2.0 * self.pairs / self.uops_total


#: Above the register bits of a row's masks: the flags and memory, each
#: one resource (a store writes memory, a load reads it).
_FLAGS = 1 << NREGS
_MEMORY = _FLAGS << 1
_REGS = _FLAGS - 1

Row = Tuple[int, int]

#: a micro-op of a superblock body: its word, and its ``x86_addr``
Item = Tuple[Word, Optional[int]]


def _row(uop: MicroOp) -> Row:
    """``(reads, writes)`` of a micro-op as masks over the registers,
    ``_FLAGS`` and ``_MEMORY``: every dependence fact the pass tests,
    derived once and moved with the micro-op."""
    info = OP_INFO[uop.op]
    reads = info.reads_flags * _FLAGS | info.load * _MEMORY
    for reg in uop.sources():
        reads |= 1 << reg
    writes = uop.writes_flags * _FLAGS | info.store * _MEMORY
    dest = uop.dest()
    return reads, writes if dest is None else writes | 1 << dest


def _conflict(first: Row, second: Row) -> bool:
    """True if ``second`` cannot move above ``first``: RAW, WAW or WAR
    over registers, the flags and memory (a store fences every access)."""
    return bool(first[1] & (second[0] | second[1]) or second[1] & first[0])


def _can_pair(head: MicroOp, tail: MicroOp, head_row: Row,
              tail_row: Row) -> bool:
    if not OP_INFO[head.op].head:
        return False
    dest = head_row[1] & _REGS
    if tail.op is UOp.BC:
        # compare-branch fusion: the dependence is through the flags
        linked = head_row[1] & _FLAGS
    else:
        linked = OP_INFO[tail.op].tail and dest & tail_row[0]
    if not linked:
        return False
    sources = (head_row[0] | tail_row[0] & ~dest) & _REGS
    return bin(sources).count("1") <= MAX_PAIR_SOURCES


def _fuse_region(region: List[Item], window: int,
                 stats: FusionStats) -> List[Item]:
    """Greedy in-order pairing with bounded tail hoisting."""
    items = list(region)
    rows = [_row(word.uop) for word, _x86_addr in items]
    index = 0
    while index < len(items) - 1:
        head, head_row = items[index][0].uop, rows[index]
        dest = head_row[1] & _REGS
        if head.fused or not OP_INFO[head.op].head or not dest:
            index += 1
            continue
        paired = False
        limit = min(len(items), index + 1 + window)
        for scan in range(index + 1, limit):
            tail, tail_row = items[scan][0].uop, rows[scan]
            if tail.fused:
                break  # never split an existing pair
            if not _can_pair(head, tail, head_row, tail_row):
                if dest & tail_row[0]:
                    break  # the consumer exists but cannot pair; stop
                continue
            # legality of hoisting the tail up behind the head
            blocked = any(_conflict(between, tail_row)
                          for between in rows[index + 1:scan])
            if blocked:
                continue
            items.insert(index + 1, items.pop(scan))
            rows.insert(index + 1, rows.pop(scan))
            items[index] = word_of(head.with_fused(True)), items[index][1]
            stats.pairs += 1
            if scan != index + 1:
                stats.tails_hoisted += 1
            index += 2
            paired = True
            break
        if not paired:
            index += 1
    return items


def fuse_microops(body: List[Item], window: int = DEFAULT_WINDOW
                  ) -> Tuple[List[Item], FusionStats]:
    """Fuse dependent pairs across an entire body of ``(word,
    x86_addr)`` items; a word becomes a fused head's as ``word_of``.

    Control transfers and VMM barriers split the body into regions; pairs
    never span regions, but the flag producer feeding a region-ending BC
    may fuse with it (compare-branch fusion).
    """
    stats = FusionStats(uops_total=len(body))
    out: List[Item] = []
    region: List[Item] = []

    def close_region(boundary: Optional[Item]) -> None:
        if region:
            stats.regions += 1
            fused = _fuse_region(region, window, stats)
            # compare-branch fusion with the boundary BC; the flag
            # producer must not already be the tail of an earlier pair
            # (a micro-op belongs to at most one macro-op)
            branch = boundary[0].uop if boundary is not None else None
            if branch is not None and branch.op is UOp.BC and fused:
                last = fused[-1][0].uop
                last_is_tail = len(fused) >= 2 and fused[-2][0].uop.fused
                if not last.fused and not last_is_tail \
                        and last.writes_flags \
                        and _can_pair(last, branch, _row(last),
                                      _row(branch)):
                    fused[-1] = word_of(last.with_fused(True)), fused[-1][1]
                    stats.pairs += 1
            out.extend(fused)
            region.clear()
        if boundary is not None:
            out.append(boundary)

    for item in body:
        if item[0].info.boundary:
            close_region(item)
        else:
            region.append(item)
    close_region(None)
    return out, stats
