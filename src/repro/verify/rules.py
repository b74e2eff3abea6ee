"""The verifier rule-pack.

Each rule re-derives one invariant of the co-designed VM's translation
contract (Hu & Smith) *independently of the emitters* — none of these
checks call into :mod:`repro.translator`.  Rule IDs are stable and
documented in ``docs/verifier.md``:

==========  ===========================================================
FUS001      fused head must be a single-cycle ALU producing a value
FUS002      fused tail must exist, be unfused, and consume the head
FUS003      a fused pair carries at most three distinct source registers
FUS004      no fused pair spans a region boundary
FUS005      a hoisted tail must not have crossed a conflicting micro-op
CTL001      relative control transfers land on micro-op boundaries
CTL002      a translation ends where the machine never runs the next byte
STB001      direct exit stubs have the fixed 12-byte patchable shape
STB002      VMEXIT hands the continuation to the VMM in R29
SCR001      VMM registers are defined before every use (scratch hygiene)
PRS001      architected flags are intact at every VMM handoff
CCH001      cache memory matches the recorded micro-ops (mod patches)
CHN001      chained stubs jump to a live translation entry
CHN002      unpatched stubs still leave through VMEXIT
SID001      every VMCALL has a side-table entry for precise state
==========  ===========================================================
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Callable, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.isa.fusible.encoding import (
    UopDecodeError,
    Word,
    WordTable,
    decode_stream,
    decode_uop,
    stream_words,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp, VMService
from repro.isa.fusible.registers import R_EXIT_TARGET, reg_name
from repro.verify.cfg import Located, build_cfg, fused_pairs
from repro.verify.dataflow import (
    VMM_MASK,
    conflicts,
    defined_and_flags,
    regs_in,
)
from repro.verify.report import Violation

#: Read-port budget of the collapsed 3-1 macro-op ALU (paper, Sec. 2).
PAIR_SOURCE_LIMIT = 3

#: How far past a pair the hoist checker scans (mirrors the pairing
#: window; a tail is never hoisted further than the window).
HOIST_SCAN = 8

#: Encoded size of a patchable direct exit stub (LUI + ORI + VMEXIT).
STUB_BYTES = 12


def live_native_entries(directory) -> Set[int]:
    """Native entry addresses of every live translation (CHN001)."""
    return {translation.native_addr
            for cache in (directory.bbt_cache, directory.sbt_cache)
            for translation in cache.translations}


class Segment:
    """One translation's stretch of a context, read on its own: its
    ``code``, the table's entry of each word (``words``), the
    ``x86_addr`` runs (``origins``), its ``size`` in bytes, and, where
    the rules read an installed copy (``translation``), its exits
    (``[offset, kind, x86_target]``) and side table (``offset ->
    x86_addr``), offsets from its first byte (None: a bare stream).  The
    joining context sets ``start`` / ``end`` (its micro-ops) and
    ``base`` (its first byte)."""

    __slots__ = ("code", "words", "origins", "run_ends", "exits",
                 "side_table", "translation", "start", "end", "base",
                 "size")

    def __init__(self, code: bytes, origins, table: WordTable,
                 translation=None) -> None:
        """Walk ``code`` through ``table``.  Raises ``UopDecodeError``:
        bytes that do not decode, a word with a don't-care bit of its
        form set (a word is its own encoding exactly when it is
        canonical), or ``origins`` -- runs, or one ``x86_addr`` a
        micro-op -- that do not cover the words exactly."""
        self.code, self.translation = code, translation
        entries = self.words = stream_words(code, table)
        stray = next((index for index, word in enumerate(entries)
                      if not word.canonical), None)
        if stray is not None:
            raise UopDecodeError(
                f"micro-op {stray} ('{entries[stray].uop}') has a "
                f"don't-care bit set: its bytes are not its encoding")
        if origins is None:
            origins = [[None, len(entries)]]
        elif origins and not isinstance(origins[0], (list, tuple)):
            origins = [[addr, len(list(run))]       # one a micro-op
                       for addr, run in groupby(origins)]
        self.run_ends = list(accumulate([run[1] for run in origins]))
        covered = self.run_ends[-1] if origins else 0
        if covered != len(entries):
            raise UopDecodeError(
                f"x86_addr list covers {covered} micro-op(s), not "
                f"the stream's {len(entries)}")
        self.origins, self.size = origins, len(code)
        self.exits = self.side_table = None
        if translation is not None:
            base = translation.native_addr
            self.exits = [(stub.stub_addr - base, stub.kind,
                           stub.x86_target) for stub in translation.exits]
            self.side_table = {addr - base: x86_addr for addr, x86_addr
                               in translation.side_table.items()}


class VerifyContext:
    """Everything a rule may consult: one or more translations as
    ``segments`` of one stream -- the word-table entry (``words``) at
    each offset (``offsets``) and the ``x86_addr`` metadata as
    ``[x86_addr, count]`` runs.  What several rules need is built once
    per context, over the joined words: the CFG, the fused pairs and
    (on first use) the forward dataflow facts; nothing crosses a
    segment boundary.  Micro-ops with their ``x86_addr`` attached
    (``uops``, ``locs``) are views built on demand for tests; no rule
    walks them."""

    def __init__(self, segments: List[Segment], memory=None,
                 directory=None, live_entries: Optional[Set[int]] = None,
                 words: Optional[WordTable] = None) -> None:
        """A context over ``segments``, each read through ``words`` (the
        VM's table or a private one)."""
        self.memory = memory
        self.directory = directory
        self._table = WordTable() if words is None else words
        self._uops = None
        self.segments = segments
        #: every segment knows its translation (exits, side table)
        self.translated = bool(segments)
        entries: List[Word] = []
        base = 0
        for seg in segments:
            seg.start, seg.base = len(entries), base
            entries += seg.words
            seg.end, base = len(entries), base + seg.size
            self.translated &= seg.exits is not None
        self._starts = [seg.start for seg in segments] or [0]
        if len(segments) == 1:      # nothing to join
            self.origins, self._run_ends = seg.origins, seg.run_ends
        else:
            self.origins = [run for seg in segments for run in seg.origins]
            self._run_ends = [seg.start + end for seg in segments
                              for end in seg.run_ends]
        self.cfg = build_cfg(entries, self._starts)
        self.words, self.offsets = self.cfg.words, self.cfg.offsets
        self.pairs = fused_pairs(entries, self._starts)
        self._facts = None
        self._live_entries = live_entries

    @classmethod
    def from_code(cls, code: bytes, origins=None,
                  words: Optional[WordTable] = None, translation=None,
                  **where) -> "VerifyContext":
        """A context over the words it reads in ``code`` through
        ``words`` (the installing VM's table: what is decoded here it
        need not decode again), as one segment.  ``origins`` is the
        ``x86_addr`` metadata as a record keeps it, ``[x86_addr,
        count]`` runs, or one ``x86_addr`` a micro-op; it must cover the
        stream exactly.  Raises ``UopDecodeError`` as ``Segment`` does.
        """
        table = WordTable() if words is None else words
        return cls([Segment(code, origins, table, translation=translation)],
                   words=table, **where)

    def segment_at(self, index: int) -> int:
        """The position of the segment micro-op ``index`` belongs to."""
        return bisect_right(self._starts, index) - 1

    def addr_at(self, index: int) -> Optional[int]:
        """The ``x86_addr`` of micro-op ``index``: FUS005's hoist scan
        and a ``Violation`` ask the run table, nobody else needs one."""
        return self.origins[bisect_right(self._run_ends, index)][0]

    @property
    def uops(self) -> List[MicroOp]:
        """The micro-ops, ``x86_addr`` attached (a view)."""
        if self._uops is None:
            self._uops = decode_stream(
                b"".join([seg.code for seg in self.segments]),
                [self.addr_at(index) for index in range(len(self.words))],
                self._table)
        return self._uops

    @property
    def locs(self) -> List[Located]:
        return self.cfg.located(0, len(self.words), self.uops)

    @property
    def facts(self):
        """``(defined registers, flag provenance)`` before each micro-op,
        both analyses solved in one walk of the CFG."""
        if self._facts is None:
            self._facts = defined_and_flags(self.cfg)
        return self._facts

    @property
    def live_entries(self) -> Set[int]:
        if self._live_entries is None:
            self._live_entries = live_native_entries(self.directory)
        return self._live_entries


@dataclass(frozen=True)
class RuleSpec:
    """A rule: ``check(ctx)`` walks the joined stream once, or, when it
    ``requires`` the translation (its exits, side table, installed
    copy), ``check(ctx, seg)`` reads one segment."""

    rule_id: str
    title: str
    requires: FrozenSet[str]
    check: Callable[..., Iterator[Violation]]
    per_segment: bool


RULES: List[RuleSpec] = []


def rule(rule_id: str, title: str, requires: Tuple[str, ...] = ()):
    def decorate(func):
        RULES.append(RuleSpec(rule_id=rule_id, title=title,
                              requires=frozenset(requires), check=func,
                              per_segment="translation" in requires))
        return func
    return decorate


def rule_ids() -> List[str]:
    return [spec.rule_id for spec in RULES]


def _v(rule_id: str, message: str, ctx: Optional[VerifyContext] = None,
       index: Optional[int] = None, **extra) -> Violation:
    if index is not None:
        extra.setdefault("index", index)
        extra.setdefault("offset", ctx.offsets[index])
        extra.setdefault("x86_addr", ctx.addr_at(index))
    return Violation(rule_id=rule_id, message=message, **extra)


# -- fusion legality -----------------------------------------------------------


@rule("FUS001", "fused head must be a single-cycle ALU producing a value")
def _check_fus001(ctx: VerifyContext) -> Iterator[Violation]:
    words = ctx.words
    for head, tail in ctx.pairs:
        uop = words[head].uop
        if not words[head].info.head:
            yield _v("FUS001", f"{uop.op.value} cannot head a fused pair",
                     ctx, head)
            continue
        if tail is not None and words[tail].uop.op is UOp.BC:
            if not uop.writes_flags:
                yield _v("FUS001", "compare-branch head does not write "
                                   "the flags the BC consumes", ctx, head)
        elif uop.dest() is None:
            yield _v("FUS001", "fused head produces no register value",
                     ctx, head)


@rule("FUS002", "fused tail must exist, be unfused, and consume the head")
def _check_fus002(ctx: VerifyContext) -> Iterator[Violation]:
    words = ctx.words
    for head, tail in ctx.pairs:
        if tail is None:
            yield _v("FUS002", "fused head has no successor micro-op",
                     ctx, head)
            continue
        uop = words[tail].uop
        if uop.fused:
            yield _v("FUS002", "pairs overlap: the tail is itself marked "
                               "as a fused head", ctx, head)
            continue
        if uop.op is UOp.BC:
            continue  # flag dependence; the head side is FUS001's job
        if not words[tail].info.tail:
            yield _v("FUS002",
                     f"{uop.op.value} cannot tail a fused pair", ctx, tail)
            continue
        head_dest = words[head].uop.dest()
        if head_dest is None or head_dest not in uop.sources():
            yield _v("FUS002", "tail does not consume the head's result",
                     ctx, tail)


@rule("FUS003", "a fused pair carries at most three distinct sources")
def _check_fus003(ctx: VerifyContext) -> Iterator[Violation]:
    words = ctx.words
    for head, tail in ctx.pairs:
        if tail is None:
            continue
        head_dest = words[head].uop.dest()
        sources = set(words[head].uop.sources())
        sources.update(reg for reg in words[tail].uop.sources()
                       if reg != head_dest)
        if len(sources) > PAIR_SOURCE_LIMIT:
            names = ", ".join(reg_name(reg) for reg in sorted(sources))
            yield _v("FUS003",
                     f"pair reads {len(sources)} registers ({names}); "
                     f"the collapsed ALU has {PAIR_SOURCE_LIMIT} read "
                     f"ports", ctx, head)


@rule("FUS004", "no fused pair spans a region boundary")
def _check_fus004(ctx: VerifyContext) -> Iterator[Violation]:
    words = ctx.words
    for head, tail in ctx.pairs:
        if words[head].info.boundary:
            yield _v("FUS004", f"region boundary "
                               f"{words[head].uop.op.value} marked as a "
                               f"fused head", ctx, head)
        if tail is not None and words[tail].info.boundary \
                and words[tail].uop.op is not UOp.BC:
            yield _v("FUS004", f"pair crosses a region boundary into "
                               f"{words[tail].uop.op.value}", ctx, tail)


@rule("FUS005", "a hoisted tail must not cross a conflicting micro-op")
def _check_fus005(ctx: VerifyContext) -> Iterator[Violation]:
    words = ctx.words
    for head, tail in ctx.pairs:
        if tail is None or words[tail].uop.op is UOp.BC:
            continue
        head_addr = ctx.addr_at(head)
        tail_addr = ctx.addr_at(tail)
        if head_addr is None or tail_addr is None \
                or tail_addr <= head_addr:
            continue  # no detectable hoist
        # Micro-ops now *after* the pair whose architected origin
        # precedes the tail's were jumped over when the tail was hoisted
        # up behind its head.  The scan stays conservative: it stops at
        # region boundaries, at any non-monotonic architected address
        # (straightened traces may bend backwards), and at the pairing
        # window bound.
        previous = head_addr
        end = min(tail + 1 + HOIST_SCAN, ctx.segments[ctx.segment_at(tail)].end)
        for index in range(tail + 1, end):
            if words[index].info.boundary:
                break
            addr = ctx.addr_at(index)
            if addr is None or addr < previous or addr >= tail_addr:
                break
            previous = addr
            uop = words[index].uop
            if conflicts(uop, words[tail].uop):
                yield _v("FUS005",
                         f"tail was hoisted across a conflicting "
                         f"{uop.op.value} at x86 {addr:#x}", ctx, tail)
                break


# -- control transfers and exit stubs -----------------------------------------


@rule("CTL001", "control transfers must land on micro-op boundaries")
def _check_ctl001(ctx: VerifyContext) -> Iterator[Violation]:
    for index in ctx.cfg.bad_targets:
        uop = ctx.words[index].uop
        target = ctx.offsets[index] + uop.length + uop.imm \
            - ctx.segments[ctx.segment_at(index)].base
        yield _v("CTL001",
                 f"{uop.op.value} displacement {uop.imm:+d} lands "
                 f"at byte {target}, not on a micro-op boundary within "
                 f"the translation", ctx, index)


@rule("CTL002", "a translation never runs off its end",
      requires=("translation",))
def _check_ctl002(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    if seg.end == seg.start:
        return
    last = seg.end - 1
    word = ctx.words[last]
    uop = word.uop
    # PROFILE is the one VMM service that resumes the translation
    if word.info.terminal or uop.op is UOp.JMP or (
            uop.op is UOp.VMCALL and uop.imm != int(VMService.PROFILE)):
        return
    yield _v("CTL002", f"translation ends in {uop.op.value}: the machine "
                       f"runs on into the bytes after it", ctx, last)


def _stub_shape_errors(uops: List[MicroOp], target: int) -> List[str]:
    """Why three micro-ops are not a canonical direct exit stub."""
    errors: List[str] = []
    if len(uops) < 3:
        return [f"stub truncated: {len(uops)} of 3 micro-ops present"]
    lui, ori, vmexit = uops[0], uops[1], uops[2]
    if lui.op is not UOp.LUI or lui.rd != R_EXIT_TARGET:
        errors.append(f"first micro-op is '{lui}', expected LUI into "
                      f"{reg_name(R_EXIT_TARGET)}")
    elif lui.imm != (target >> 13) & 0x7FFFF:
        errors.append(f"LUI imm {lui.imm:#x} does not rebuild target "
                      f"{target:#x}")
    if ori.op is not UOp.ORI or ori.rd != R_EXIT_TARGET \
            or ori.rs1 != R_EXIT_TARGET:
        errors.append(f"second micro-op is '{ori}', expected ORI "
                      f"{reg_name(R_EXIT_TARGET)} into itself")
    elif ori.imm != target & 0x1FFF:
        errors.append(f"ORI imm {ori.imm:#x} does not rebuild target "
                      f"{target:#x}")
    if vmexit.op is not UOp.VMEXIT or vmexit.rs1 != R_EXIT_TARGET:
        errors.append(f"third micro-op is '{vmexit}', expected VMEXIT "
                      f"via {reg_name(R_EXIT_TARGET)}")
    return errors


@rule("STB001", "direct exit stubs have the fixed 12-byte patchable "
                "shape", requires=("translation",))
def _check_stb001(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    for offset, _kind, x86_target in seg.exits:
        index = ctx.cfg.index_at_offset.get(seg.base + offset) \
            if 0 <= offset < seg.size else None
        if index is None:
            yield _v("STB001", f"exit stub at +{offset:#x} does not sit "
                               f"on a micro-op boundary",
                     offset=offset)
            continue
        end = index + 3 if index + 3 < seg.end else seg.end
        uops = [word.uop for word in ctx.words[index:end]]
        if x86_target is None:
            if uops[0].op is not UOp.VMEXIT:
                yield _v("STB001", f"indirect exit records '{uops[0]}', "
                                   f"expected VMEXIT", ctx, index)
            continue
        for error in _stub_shape_errors(uops, x86_target):
            yield _v("STB001", error, ctx, index)


@rule("STB002", "VMEXIT hands the continuation to the VMM in R29")
def _check_stb002(ctx: VerifyContext) -> Iterator[Violation]:
    for index in ctx.cfg.transfers:
        uop = ctx.words[index].uop
        if uop.op is UOp.VMEXIT and uop.rs1 != R_EXIT_TARGET:
            yield _v("STB002",
                     f"VMEXIT reads {reg_name(uop.rs1)}; the "
                     f"dispatcher expects the continuation in "
                     f"{reg_name(R_EXIT_TARGET)}", ctx, index)


# -- dataflow hygiene ----------------------------------------------------------


@rule("SCR001", "VMM registers are defined before every use")
def _check_scr001(ctx: VerifyContext) -> Iterator[Violation]:
    # a fact is None where the micro-op is unreachable from entry
    for index in [index for index, (word, fact)
                  in enumerate(zip(ctx.words, ctx.facts))
                  if fact and word.facts[0] & VMM_MASK & ~fact[0]]:
        undefined = ctx.words[index].facts[0] & VMM_MASK \
            & ~ctx.facts[index][0]
        for reg in regs_in(undefined):
            yield _v("SCR001",
                     f"reads VMM register {reg_name(reg)} which is "
                     f"not defined on every path from entry", ctx, index)


@rule("PRS001", "architected flags are intact at every VMM handoff")
def _check_prs001(ctx: VerifyContext) -> Iterator[Violation]:
    facts = ctx.facts
    for index in ctx.cfg.transfers:
        uop, fact = ctx.words[index].uop, facts[index]
        handoff = uop.op is UOp.VMEXIT or (
            uop.op is UOp.VMCALL and uop.imm != int(VMService.PROFILE))
        if not handoff or fact is None:
            continue
        if not fact[1][0]:
            yield _v("PRS001",
                     f"{uop.op.value} reached with clobbered architected "
                     f"flags (unbalanced RDFLG/WRFLG save window)",
                     ctx, index)


# -- code cache and chaining ---------------------------------------------------


def _patched_ranges(ctx: VerifyContext,
                    seg: Segment) -> List[Tuple[int, int]]:
    """Byte ranges chaining/redirection legitimately rewrote in memory."""
    translation = seg.translation
    ranges: List[Tuple[int, int]] = []
    for stub in translation.exits:
        if stub.chained_to is not None:
            offset = stub.stub_addr - translation.native_addr
            ranges.append((offset, offset + 4))
    directory = ctx.directory
    if directory is not None and \
            directory.is_redirected(translation.native_addr):
        ranges.append((0, 4))
    return ranges


@rule("CCH001", "cache memory matches the recorded micro-ops",
      requires=("translation", "memory"))
def _check_cch001(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    translation = seg.translation
    if translation.native_len and translation.native_len != seg.size:
        yield _v("CCH001",
                 f"recorded micro-ops cover {seg.size} bytes "
                 f"but native_len is {translation.native_len}",
                 entry=translation.entry, kind=translation.kind)
    patched = _patched_ranges(ctx, seg)
    image = ctx.memory.read(translation.native_addr, seg.size + 2)
    if not patched and image.startswith(seg.code):
        return      # the common case: what was installed, untouched
    for index in range(seg.start, seg.end):
        offset = ctx.offsets[index] - seg.base
        if any(start <= offset < end for start, end in patched):
            continue
        word = ctx.words[index]
        window = image[offset:offset + 4]
        if window.startswith(seg.code[offset:offset
                                      + (word.shape & 0x7F)]):
            continue  # the translation's own bytes
        try:
            in_memory = decode_uop(window)
        except UopDecodeError as error:
            yield _v("CCH001", f"cache bytes do not decode: {error}",
                     ctx, index)
            continue
        if in_memory != word.uop:
            yield _v("CCH001",
                     f"cache image holds '{in_memory}' where the "
                     f"translation recorded '{word.uop}'",
                     ctx, index)


@rule("CHN001", "chained stubs jump to a live translation entry",
      requires=("translation", "memory", "directory"))
def _check_chn001(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    translation = seg.translation
    for stub in translation.exits:
        if stub.chained_to is None:
            continue
        offset = stub.stub_addr - translation.native_addr
        if stub.chained_to not in ctx.live_entries:
            yield _v("CHN001",
                     f"stub chained to {stub.chained_to:#x}, which is "
                     f"not a live translation entry", offset=offset)
            continue
        window = ctx.memory.read(stub.stub_addr, 4)
        try:
            jmp = decode_uop(window)
        except UopDecodeError as error:
            yield _v("CHN001", f"chained stub head does not decode: "
                               f"{error}", offset=offset)
            continue
        if jmp.op is not UOp.JMP:
            yield _v("CHN001", f"chained stub head is '{jmp}', expected "
                               f"a direct JMP", offset=offset)
        elif stub.stub_addr + 4 + jmp.imm != stub.chained_to:
            yield _v("CHN001",
                     f"chain JMP lands at "
                     f"{stub.stub_addr + 4 + jmp.imm:#x} but the stub "
                     f"records {stub.chained_to:#x}", offset=offset)


@rule("CHN002", "unpatched stubs still leave through VMEXIT",
      requires=("translation", "memory"))
def _check_chn002(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    translation = seg.translation
    for stub in translation.exits:
        if stub.chained_to is not None or stub.x86_target is None:
            continue
        offset = stub.stub_addr - translation.native_addr
        data = ctx.memory.read(stub.stub_addr, STUB_BYTES)
        try:
            uops = []
            position = 0
            while position < STUB_BYTES:
                uop = decode_uop(data, position)
                uops.append(uop)
                position += uop.length
        except UopDecodeError as error:
            yield _v("CHN002", f"unpatched stub bytes do not decode: "
                               f"{error}", offset=offset)
            continue
        for error in _stub_shape_errors(uops, stub.x86_target):
            yield _v("CHN002", f"unpatched stub in memory: {error}",
                     offset=offset)


@rule("SID001", "every VMCALL has a side-table entry for precise state",
      requires=("translation",))
def _check_sid001(ctx: VerifyContext, seg: Segment) -> Iterator[Violation]:
    transfers = ctx.cfg.transfers
    for index in transfers[bisect_left(transfers, seg.start):
                           bisect_left(transfers, seg.end)]:
        if ctx.words[index].uop.op is not UOp.VMCALL:
            continue
        offset = ctx.offsets[index] - seg.base
        if offset not in seg.side_table:
            yield _v("SID001",
                     "VMCALL has no side-table entry; the VMM cannot "
                     "reconstruct precise architected state", ctx, index)
            continue
        if ctx.directory is not None:
            translation = seg.translation
            resolved = ctx.directory.resolve_side_table(
                translation.native_addr + offset)
            if resolved is None or resolved[1] is not translation:
                yield _v("SID001",
                         "side-table entry is not registered with the "
                         "translation directory", ctx, index)
