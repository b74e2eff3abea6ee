"""Redundant-load elimination and store-to-load forwarding.

A classic superblock-scope optimization the SBT applies before fusion:
cracked CISC code is full of reloads — read-modify-write sequences
followed by uses of the same location, repeated stack slots, and so on.
Within a region (no control transfers, no VMM barriers), a load from
``[base + disp]`` whose value is already in a register — from an earlier
load or an earlier store to the same address — becomes a register move,
which is shorter (16-bit form), faster, and a better fusion head.

Safety model (conservative, alias-free by construction):

* only word loads/stores (``LDW``/``STW``) participate;
* *any* store invalidates every remembered location except the one it
  itself defines (two symbolic addresses may alias);
* redefining a location's base register or value register forgets it;
* regions end at branches and VMM barriers (a VMCALL may run the
  interpreter, which can write anything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.fusible.encoding import word_of
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.fusible.registers import SHORT_FORM_REG_LIMIT
from repro.translator.fusion import Item


@dataclass
class RedundancyStats:
    """Outcome accounting for one elimination pass."""

    loads_eliminated: int = 0
    regions: int = 0


class _AvailableLocations:
    """Tracks which memory words are known to live in registers."""

    def __init__(self) -> None:
        #: (base_reg, disp) -> register currently holding the value
        self._values: Dict[Tuple[int, int], int] = {}

    def lookup(self, base: int, disp: int) -> Optional[int]:
        return self._values.get((base, disp))

    def define(self, base: int, disp: int, value_reg: int) -> None:
        self._values[(base, disp)] = value_reg

    def clobber_stores(self, except_key: Optional[Tuple[int, int]] = None
                       ) -> None:
        """A store happened: distinct symbolic addresses may alias."""
        if except_key is None:
            self._values.clear()
            return
        kept = self._values.get(except_key)
        self._values.clear()
        if kept is not None:
            self._values[except_key] = kept

    def clobber_register(self, reg: Optional[int]) -> None:
        """``reg`` was redefined: forget locations involving it."""
        if reg is None:
            return
        stale = [key for key, value in self._values.items()
                 if value == reg or key[0] == reg]
        for key in stale:
            del self._values[key]


def _rewrite_to_move(load: MicroOp, source_reg: int) -> MicroOp:
    """LDW rd, disp(base) whose value is in ``source_reg`` -> MOV2."""
    if load.rd == source_reg:
        return MicroOp(UOp.NOP2, fused=load.fused)
    if load.rd < SHORT_FORM_REG_LIMIT and \
            source_reg < SHORT_FORM_REG_LIMIT:
        return MicroOp(UOp.MOV2, rd=load.rd, rs1=source_reg,
                       fused=load.fused)
    # out of the 16-bit format's range: use an OR with the zero register
    return MicroOp(UOp.ADDI, rd=load.rd, rs1=source_reg, imm=0,
                   fused=load.fused)


def _process_region(region: List[Item],
                    stats: RedundancyStats) -> List[Item]:
    available = _AvailableLocations()
    out: List[Item] = []
    for item in region:
        uop = item[0].uop
        if uop.op is UOp.LDW:
            key = (uop.rs1, uop.imm)
            held = available.lookup(*key)
            if held is not None:
                stats.loads_eliminated += 1
                available.clobber_register(uop.rd)
                if uop.rd != held:
                    available.define(key[0], key[1], uop.rd)
                out.append((word_of(_rewrite_to_move(uop, held)), item[1]))
                continue
            available.clobber_register(uop.rd)
            if uop.rd != uop.rs1:  # rd==base would self-invalidate
                available.define(uop.rs1, uop.imm, uop.rd)
        elif uop.op is UOp.STW:
            key = (uop.rs1, uop.imm)
            available.clobber_stores(except_key=key)
            available.define(key[0], key[1], uop.rd)
        elif uop.is_store or uop.op in (UOp.LDHU, UOp.LDHS, UOp.LDBU,
                                        UOp.LDBS, UOp.LDF):
            # sub-word / wide accesses: give up on everything
            available.clobber_stores()
            available.clobber_register(uop.dest())
        else:
            available.clobber_register(uop.dest())
        out.append(item)
    return out


def eliminate_redundant_loads(body: List[Item]
                              ) -> Tuple[List[Item], RedundancyStats]:
    """Run the pass over a body of ``(word, x86_addr)`` items (a
    rewritten load's word is ``word_of`` its move); region-scoped and
    safe."""
    stats = RedundancyStats()
    out: List[Item] = []
    region: List[Item] = []
    for item in body:
        if item[0].info.boundary:
            if region:
                stats.regions += 1
                out.extend(_process_region(region, stats))
                region = []
            out.append(item)
        else:
            region.append(item)
    if region:
        stats.regions += 1
        out.extend(_process_region(region, stats))
    return out, stats
