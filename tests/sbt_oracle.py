"""The SBT as it was built before it read the template table: the oracle.

``translator/sbt.py`` builds a superblock from the words the template
table serves and runs its passes over those words.  Before, it decoded
every instruction again (``scan_block``), cracked it, ran the same
passes over ``MicroOp`` lists and encoded the result.  That pipeline is
kept here, whole, as the reference the byte path must equal:
:func:`reference_translation` is what the SBT would have installed, and
:func:`checking_sbt` holds every translation a VM makes to it.  It
shares only the legality predicates with ``src/`` (``fusion._row`` and
friends, the redundancy pass's location table), not a line of the
pipeline.  :func:`on_uops` runs a ``src/`` pass over a ``MicroOp`` list,
for the unit tests of the passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.isa.fusible.encoding import WordTable, encode_stream, encode_uop
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp
from repro.isa.fusible.registers import SHORT_FORM_REG_LIMIT
from repro.isa.x86lite.decoder import decode_at
from repro.isa.x86lite.instruction import Instruction
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond
from repro.translator.cracker import crack
from repro.translator.emit import direct_exit_stub, indirect_exit, \
    vmcall_complex
from repro.translator.fusion import (
    DEFAULT_WINDOW,
    _can_pair,
    _conflict,
    _REGS,
    _row,
)
from repro.translator.redundancy import _AvailableLocations
from repro.translator.sbt import SuperblockTranslator, invert_cond


def on_uops(body_pass, uops: List[MicroOp]):
    """``body_pass`` (a ``src/`` pass over ``(word, x86_addr)`` items)
    run over ``uops``: each read through a word table from its encoding,
    as the SBT reads the template table's bytes; the result back as
    micro-ops with their ``x86_addr``, and the pass's statistics."""
    words = WordTable()
    body = [(words[encode_uop(uop)], uop.x86_addr) for uop in uops]
    out, stats = body_pass(body)
    return [replace(word.uop, x86_addr=x86_addr)
            for word, x86_addr in out], stats


def origin_runs(uops: List[MicroOp]) -> List[List]:
    """The ``x86_addr`` of each micro-op as ``[x86_addr, count]`` runs."""
    return [[x86_addr, len(list(run))] for x86_addr, run
            in groupby(uop.x86_addr for uop in uops)]


# -- forming -----------------------------------------------------------------

def scan_block(memory, entry: int, max_instrs: int = 64
               ) -> List[Instruction]:
    """Decode one dynamic basic block starting at ``entry``: it ends at
    (and includes) the first control transfer or complex instruction,
    or after ``max_instrs`` instructions."""
    instrs: List[Instruction] = []
    pc = entry
    while len(instrs) < max_instrs:
        instr = decode_at(memory, pc)
        instrs.append(instr)
        if instr.is_control_transfer or instr.is_complex \
                or instr.width == 16:
            break
        pc = instr.next_addr
    return instrs


@dataclass
class Block:
    entry: int
    instrs: List[Instruction]
    followed: Optional[str] = None

    @property
    def last(self) -> Instruction:
        return self.instrs[-1]


@dataclass
class Trace:
    head: int
    blocks: List[Block] = field(default_factory=list)
    loops_to_head: bool = False


def form(memory, seed: int, edges, max_instrs: int, bias: float,
         max_blocks: int = 32) -> Trace:
    trace = Trace(head=seed)
    visited = set()
    pc = seed
    while len(trace.blocks) < max_blocks and \
            sum(len(block.instrs) for block in trace.blocks) < max_instrs:
        block = Block(pc, scan_block(memory, pc))
        trace.blocks.append(block)
        visited.add(pc)
        last = block.last
        if last.is_complex or last.width == 16:
            break
        if last.op in (Op.RET, Op.CALL) or \
                (last.is_control_transfer and last.target is None):
            break
        if last.op is Op.JMP:
            next_pc = last.target
            block.followed = "jump"
        elif last.op is Op.JCC:
            biased = edges.biased_successor(pc, bias)
            if biased == last.target:
                block.followed, next_pc = "taken", last.target
            elif biased == last.next_addr:
                block.followed, next_pc = "fallthrough", last.next_addr
            else:
                block.followed = None
                break
        else:
            block.followed = "fallthrough-limit"
            next_pc = last.next_addr
        if next_pc == trace.head:
            trace.loops_to_head = True
            break
        if next_pc in visited:
            block.followed = None
            break
        pc = next_pc
    return trace


# -- the passes over MicroOps ------------------------------------------------

def eliminate_dead_flags(uops: List[MicroOp]) -> Tuple[List[MicroOp], int]:
    eliminated = 0
    out: List[MicroOp] = []
    cf_live = rest_live = True
    for uop in reversed(uops):
        if uop.is_branch and uop.op is not UOp.BC:
            cf_live = rest_live = True
        if uop.writes_flags:
            if uop.op in (UOp.INCF, UOp.DECF):
                if rest_live:
                    rest_live = False
                else:
                    eliminated += 1
                    uop = replace(uop, setflags=False)
            elif cf_live or rest_live:
                cf_live = rest_live = False
            else:
                eliminated += 1
                if uop.op in (UOp.CMP2, UOp.TEST2) or \
                        (uop.dest() is None and not uop.is_store):
                    continue
                uop = replace(uop, setflags=False)
        if uop.reads_flags:
            cf_live = rest_live = True
        out.append(uop)
    out.reverse()
    return out, eliminated


def _regions(uops: List[MicroOp], process) -> List[MicroOp]:
    """``process`` each run of micro-ops between boundaries; a boundary
    is handed on with the run it closes (None at the end)."""
    out: List[MicroOp] = []
    region: List[MicroOp] = []
    for uop in uops + [None]:
        if uop is None or OP_INFO[uop.op].boundary:
            out.extend(process(region, uop) if region else [])
            region = []
            if uop is not None:
                out.append(uop)
        else:
            region.append(uop)
    return out


def eliminate_redundant_loads(uops: List[MicroOp]
                              ) -> Tuple[List[MicroOp], int]:
    eliminated = 0

    def process(region, _boundary):
        nonlocal eliminated
        available = _AvailableLocations()
        out = []
        for uop in region:
            if uop.op is UOp.LDW:
                key = (uop.rs1, uop.imm)
                held = available.lookup(*key)
                if held is not None:
                    eliminated += 1
                    available.clobber_register(uop.rd)
                    if uop.rd != held:
                        available.define(key[0], key[1], uop.rd)
                    if uop.rd == held:
                        uop = MicroOp(UOp.NOP2, x86_addr=uop.x86_addr,
                                      fused=uop.fused)
                    elif uop.rd < SHORT_FORM_REG_LIMIT and \
                            held < SHORT_FORM_REG_LIMIT:
                        uop = MicroOp(UOp.MOV2, rd=uop.rd, rs1=held,
                                      x86_addr=uop.x86_addr,
                                      fused=uop.fused)
                    else:
                        uop = MicroOp(UOp.ADDI, rd=uop.rd, rs1=held,
                                      imm=0, x86_addr=uop.x86_addr,
                                      fused=uop.fused)
                    out.append(uop)
                    continue
                available.clobber_register(uop.rd)
                if uop.rd != uop.rs1:
                    available.define(uop.rs1, uop.imm, uop.rd)
            elif uop.op is UOp.STW:
                available.clobber_stores(except_key=(uop.rs1, uop.imm))
                available.define(uop.rs1, uop.imm, uop.rd)
            elif uop.is_store or uop.op in (UOp.LDHU, UOp.LDHS, UOp.LDBU,
                                            UOp.LDBS, UOp.LDF):
                available.clobber_stores()
                available.clobber_register(uop.dest())
            else:
                available.clobber_register(uop.dest())
            out.append(uop)
        return out

    out = _regions(uops, process)
    return out, eliminated


def fuse_microops(uops: List[MicroOp]) -> Tuple[List[MicroOp], int]:
    pairs = 0

    def process(region, boundary):
        nonlocal pairs
        uops = list(region)
        rows = [_row(uop) for uop in uops]
        index = 0
        while index < len(uops) - 1:
            head, head_row = uops[index], rows[index]
            dest = head_row[1] & _REGS
            if head.fused or not OP_INFO[head.op].head or not dest:
                index += 1
                continue
            for scan in range(index + 1,
                              min(len(uops), index + 1 + DEFAULT_WINDOW)):
                tail, tail_row = uops[scan], rows[scan]
                if tail.fused:
                    break
                if not _can_pair(head, tail, head_row, tail_row):
                    if dest & tail_row[0]:
                        break
                    continue
                if any(_conflict(between, tail_row)
                       for between in rows[index + 1:scan]):
                    continue
                uops.insert(index + 1, uops.pop(scan))
                rows.insert(index + 1, rows.pop(scan))
                uops[index] = head.with_fused(True)
                pairs += 1
                index += 1
                break
            index += 1
        if boundary is not None and boundary.op is UOp.BC:
            last = uops[-1]
            if not last.fused and not (len(uops) >= 2 and uops[-2].fused) \
                    and last.writes_flags \
                    and _can_pair(last, boundary, _row(last),
                                  _row(boundary)):
                uops[-1] = last.with_fused(True)
                pairs += 1
        return uops

    out = _regions(uops, process)
    return out, pairs


# -- building and laying out -------------------------------------------------

def build_body(trace: Trace):
    """Crack and straighten the trace: ``(body, bc_stub_indices,
    stub_plans)``."""
    body: List[MicroOp] = []
    bc_stub_indices: List[int] = []
    stub_plans: List[Tuple[str, Optional[int]]] = []
    final_block = trace.blocks[-1]
    leading: Optional[Tuple[str, Optional[int]]] = None
    for block in trace.blocks:
        for instr in block.instrs[:-1]:
            body.extend(crack(instr).uops)
        last = block.last
        cracked = crack(last)
        if block.followed is not None:
            body.extend(cracked.uops)
            if block.followed in ("taken", "fallthrough"):
                if block.followed == "taken":
                    cond, side = invert_cond(last.cond), last.next_addr
                else:
                    cond, side = Cond(last.cond), last.target
                stub_plans.append(("side", side))
                bc_stub_indices.append(len(stub_plans) - 1)
                body.append(MicroOp(UOp.BC, cond=cond, imm=0,
                                    x86_addr=last.addr))
            if block is final_block:
                if trace.loops_to_head:
                    bc_stub_indices.append(-1)
                    body.append(MicroOp(UOp.JMP, imm=0, x86_addr=last.addr))
                else:
                    leading = ("fallthrough", last.target
                               if block.followed in ("taken", "jump")
                               else last.next_addr)
            continue
        if cracked.cmplx:
            body.extend(vmcall_complex(last.addr))
        elif last.op is Op.JCC:
            stub_plans.append(("taken", last.target))
            bc_stub_indices.append(len(stub_plans) - 1)
            body.append(MicroOp(UOp.BC, cond=Cond(last.cond), imm=0,
                                x86_addr=last.addr))
            body.extend(cracked.uops)
            leading = ("fallthrough", last.next_addr)
        elif last.is_control_transfer and last.target is not None:
            body.extend(cracked.uops)
            leading = ("jump", last.target)
        elif last.is_control_transfer:
            body.extend(cracked.uops)
            body.extend(indirect_exit(last.addr))
        else:
            body.extend(cracked.uops)
            leading = ("fallthrough", last.next_addr)
    if leading is not None:
        stub_plans.insert(0, leading)
        bc_stub_indices = [index + 1 if index >= 0 else index
                           for index in bc_stub_indices]
    return body, bc_stub_indices, stub_plans


def layout(body: List[MicroOp], bc_stub_indices: List[int],
           stub_plans, head: int):
    """Body + stubs with BC/JMP displacements resolved: ``(micro-ops,
    exits as (offset, kind, x86 target))``."""
    offset = sum(uop.length for uop in body)
    stub_offsets, stubs, exits = [], [], []
    for kind, target in stub_plans:
        stub_offsets.append(offset)
        stub = direct_exit_stub(target, head)
        stubs.extend(stub)
        exits.append((offset, "taken" if kind == "side" else kind, target))
        offset += sum(uop.length for uop in stub)
    fixups = list(bc_stub_indices)
    out: List[MicroOp] = []
    position = 0
    for uop in body:
        if uop.op in (UOp.BC, UOp.JMP) and fixups:
            stub_index = fixups.pop(0)
            target = 0 if stub_index == -1 else stub_offsets[stub_index]
            uop = replace(uop, imm=target - (position + uop.length))
        out.append(uop)
        position += uop.length
    return out + stubs, exits


def reference_translation(sbt: SuperblockTranslator, seed: int,
                          edges) -> Dict:
    """What ``sbt.translate(seed, edges)`` installed before: the fields
    :func:`installed` reads, and what each pass eliminated."""
    trace = form(sbt.memory, seed, edges, sbt.max_instrs, sbt.bias)
    body, bc_stub_indices, stub_plans = build_body(trace)
    flags = loads = 0
    if sbt.enable_dead_flag_elim:
        body, flags = eliminate_dead_flags(body)
    if sbt.enable_load_elim:
        body, loads = eliminate_redundant_loads(body)
    pairs = 0
    if sbt.enable_fusion:
        body, pairs = fuse_microops(body)
    uops, exits = layout(body, bc_stub_indices, stub_plans, trace.head)
    side, offset = {}, 0
    for uop in uops:
        if uop.op is UOp.VMCALL:
            side[offset] = uop.x86_addr
        offset += uop.length
    return {
        "code": encode_stream(uops), "origins": origin_runs(uops),
        "exits": exits, "side_table": side,
        "x86_addrs": [block.entry for block in trace.blocks],
        "counts": (sum(len(block.instrs) for block in trace.blocks),
                   len(uops), pairs),
        "eliminated": (flags, loads),
    }


def installed(translation, eliminated) -> Dict:
    base = translation.native_addr
    return {
        "code": translation.code, "origins": translation.origins,
        "exits": [(stub.stub_addr - base, stub.kind, stub.x86_target)
                  for stub in translation.exits],
        "side_table": {addr - base: x86_addr for addr, x86_addr
                       in translation.side_table.items()},
        "x86_addrs": translation.x86_addrs,
        "counts": (translation.instr_count, translation.uop_count,
                   translation.fused_pairs),
        "eliminated": eliminated,
    }


@contextmanager
def checking_sbt() -> Iterator[List[Dict]]:
    """Inside, every ``SuperblockTranslator.translate`` is checked
    against :func:`reference_translation` at the moment it runs (the
    same memory, the same edge profile); yields the list each checked
    translation's fields are appended to."""
    checked: List[Dict] = []
    translate = SuperblockTranslator.translate

    def checked_translate(self, seed, edges):
        try:
            expected = reference_translation(self, seed, edges)
        except Exception as error:      # noqa: BLE001 - compared below
            # what the reference cannot translate, neither may the SBT
            with pytest.raises(Exception):
                translate(self, seed, edges)
            raise error
        before = (self.flags_eliminated, self.loads_eliminated)
        translation = translate(self, seed, edges)
        got = installed(translation, (self.flags_eliminated - before[0],
                                      self.loads_eliminated - before[1]))
        assert got == expected, f"superblock at {seed:#x}"
        checked.append(got)
        return translation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SuperblockTranslator, "translate", checked_translate)
        yield checked
