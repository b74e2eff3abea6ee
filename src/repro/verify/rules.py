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
STB001      direct exit stubs have the fixed 12-byte patchable shape
STB002      VMEXIT hands the continuation to the VMM in R29
SCR001      VMM registers are defined before every use (scratch hygiene)
PRS001      architected flags are intact at every VMM handoff
ENC001      every emitted micro-op is encodable
ENC002      encode -> decode is the identity on emitted micro-ops
CCH001      cache memory matches the recorded micro-ops (mod patches)
CHN001      chained stubs jump to a live translation entry
CHN002      unpatched stubs still leave through VMEXIT
SID001      every VMCALL has a side-table entry for precise state
==========  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.isa.fusible.encoding import (
    UopDecodeError,
    UopEncodeError,
    Word,
    WordTable,
    decode_stream,
    decode_uop,
    encode_uop,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp, VMService
from repro.isa.fusible.registers import R_EXIT_TARGET, reg_name
from repro.verify.cfg import Located, build_cfg, fused_pairs
from repro.verify.dataflow import (
    VMM_MASK,
    conflicts,
    defined_and_flags,
    regs_in,
    word_facts,
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


def _encode(uop: MicroOp):
    try:
        return encode_uop(uop)
    except UopEncodeError as error:
        return error


def _encoded_fields(uop: MicroOp) -> tuple:
    """The fields a micro-op's bytes carry (``x86_addr`` is metadata)."""
    return (uop.op, uop.rd, uop.rs1, uop.rs2, uop.imm, uop.cond, uop.fused,
            uop.setflags)


class VerifyContext:
    """Everything a rule may consult.  What several rules need is built
    once per context: each micro-op's encoded bytes and word-table entry,
    the CFG, the fused pairs and (on first use) the forward dataflow
    facts."""

    def __init__(self, uops, translation=None, memory=None,
                 directory=None, live_entries: Optional[Set[int]] = None,
                 source: tuple = (b"", ()),
                 words: Optional[WordTable] = None) -> None:
        self.uops: List[MicroOp] = list(uops)
        self.translation = translation
        self.memory = memory
        self.directory = directory
        #: per micro-op: its encoded bytes, or the UopEncodeError.  The
        #: one encoding ENC001, ENC002 and CCH001 check and, for a warm
        #: install, the very bytes that go into the code cache.
        self.encoded: List = []
        #: indices ENC001/ENC002 must check (``encoded`` is ``encode_uop``'s);
        #: elsewhere it *is* the canonical ``source`` slice decoded from
        self.unproven: List[int] = []
        #: index -> what ``encoded`` decodes back as, where that is not
        #: the micro-op that was encoded (ENC002's findings)
        self.misread: dict = {}
        # the VM's table or a private one: each micro-op's static facts
        # are those of the entry its ``encoded`` bytes decode to
        words = WordTable() if words is None else words
        entries: List[Word] = []
        code, decoded = source      # bytes, and what they decoded to
        end = 0
        for was, now in zip_longest(decoded[:len(self.uops)], self.uops):
            word = None
            if was is not None:
                start, end = end, end + OP_INFO[was.op].length
                if now is was:
                    chunk = code[start:end]
                    word = words[chunk]
            if word is None or not word.canonical:
                # encoded here, so checked: the table's decode of those
                # bytes is ENC002's comparison and, if equal, the entry
                self.unproven.append(len(entries))
                chunk = _encode(now)
                word = None if isinstance(chunk, UopEncodeError) \
                    else words[chunk]
                if word and _encoded_fields(word.uop) != _encoded_fields(now):
                    self.misread[len(entries)], word = word.uop, None
            self.encoded.append(chunk)
            # no bytes read as this micro-op: its facts are its own
            entries.append(word or Word(now))
        self.cfg = build_cfg(self.uops, entries)
        self.locs = self.cfg.locs
        self.pairs = fused_pairs(self.locs)
        self._facts = None
        self._live_entries = live_entries

    @classmethod
    def from_code(cls, code: bytes, x86_addrs=None, rebind=None,
                  words: Optional[WordTable] = None,
                  **where) -> "VerifyContext":
        """A context over the micro-ops *it decodes* from ``code``
        (raises ``UopDecodeError``); ``x86_addrs`` as ``decode_stream``
        takes it.  ``rebind`` may swap micro-ops of the decoded list
        before anything is built on it; ``words`` is the installing
        VM's table (what is decoded here it need not decode again).

        Where a micro-op is the very object decoded here and its bytes
        are canonical (no don't-care bit of its form set), those bytes
        *are* its encoding: ENC001 and ENC002 hold by construction.  A
        swapped micro-op, or one decoded from non-canonical bytes, is
        encoded and checked like any other, and ``image`` is the
        canonical re-encoding.
        """
        words = WordTable() if words is None else words
        decoded = decode_stream(code, x86_addrs, words)
        return cls(decoded if rebind is None else rebind(decoded),
                   source=(code, decoded), words=words, **where)

    @property
    def image(self) -> bytes:
        """The encoded stream; defined when ENC001 holds."""
        return b"".join(self.encoded)

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

    def available(self) -> FrozenSet[str]:
        have = set()
        if self.translation is not None:
            have.add("translation")
        if self.memory is not None:
            have.add("memory")
        if self.directory is not None:
            have.add("directory")
        return frozenset(have)


@dataclass(frozen=True)
class RuleSpec:
    rule_id: str
    title: str
    requires: FrozenSet[str]
    check: Callable[[VerifyContext], Iterator[Violation]]


RULES: List[RuleSpec] = []


def rule(rule_id: str, title: str, requires: Tuple[str, ...] = ()):
    def decorate(func):
        RULES.append(RuleSpec(rule_id=rule_id, title=title,
                              requires=frozenset(requires), check=func))
        return func
    return decorate


def rule_ids() -> List[str]:
    return [spec.rule_id for spec in RULES]


def _v(rule_id: str, message: str, loc: Optional[Located] = None,
       **extra) -> Violation:
    if loc is not None:
        extra.setdefault("index", loc.index)
        extra.setdefault("offset", loc.offset)
        extra.setdefault("x86_addr", loc.uop.x86_addr)
    return Violation(rule_id=rule_id, message=message, **extra)


# -- fusion legality -----------------------------------------------------------


@rule("FUS001", "fused head must be a single-cycle ALU producing a value")
def _check_fus001(ctx: VerifyContext) -> Iterator[Violation]:
    for head, tail in ctx.pairs:
        uop = head.uop
        if not OP_INFO[uop.op].head:
            yield _v("FUS001", f"{uop.op.value} cannot head a fused pair",
                     head)
            continue
        if tail is not None and tail.uop.op is UOp.BC:
            if not uop.writes_flags:
                yield _v("FUS001", "compare-branch head does not write "
                                   "the flags the BC consumes", head)
        elif uop.dest() is None:
            yield _v("FUS001", "fused head produces no register value",
                     head)


@rule("FUS002", "fused tail must exist, be unfused, and consume the head")
def _check_fus002(ctx: VerifyContext) -> Iterator[Violation]:
    for head, tail in ctx.pairs:
        if tail is None:
            yield _v("FUS002", "fused head has no successor micro-op",
                     head)
            continue
        if tail.uop.fused:
            yield _v("FUS002", "pairs overlap: the tail is itself marked "
                               "as a fused head", head)
            continue
        if tail.uop.op is UOp.BC:
            continue  # flag dependence; the head side is FUS001's job
        if not OP_INFO[tail.uop.op].tail:
            yield _v("FUS002",
                     f"{tail.uop.op.value} cannot tail a fused pair", tail)
            continue
        head_dest = head.uop.dest()
        if head_dest is None or head_dest not in tail.uop.sources():
            yield _v("FUS002", "tail does not consume the head's result",
                     tail)


@rule("FUS003", "a fused pair carries at most three distinct sources")
def _check_fus003(ctx: VerifyContext) -> Iterator[Violation]:
    for head, tail in ctx.pairs:
        if tail is None:
            continue
        head_dest = head.uop.dest()
        sources = set(head.uop.sources())
        sources.update(reg for reg in tail.uop.sources()
                       if reg != head_dest)
        if len(sources) > PAIR_SOURCE_LIMIT:
            names = ", ".join(reg_name(reg) for reg in sorted(sources))
            yield _v("FUS003",
                     f"pair reads {len(sources)} registers ({names}); "
                     f"the collapsed ALU has {PAIR_SOURCE_LIMIT} read "
                     f"ports", head)


@rule("FUS004", "no fused pair spans a region boundary")
def _check_fus004(ctx: VerifyContext) -> Iterator[Violation]:
    for head, tail in ctx.pairs:
        if OP_INFO[head.uop.op].boundary:
            yield _v("FUS004", f"region boundary {head.uop.op.value} "
                               f"marked as a fused head", head)
        if tail is not None and OP_INFO[tail.uop.op].boundary \
                and tail.uop.op is not UOp.BC:
            yield _v("FUS004", f"pair crosses a region boundary into "
                               f"{tail.uop.op.value}", tail)


@rule("FUS005", "a hoisted tail must not cross a conflicting micro-op")
def _check_fus005(ctx: VerifyContext) -> Iterator[Violation]:
    locs = ctx.locs
    for head, tail in ctx.pairs:
        if tail is None or tail.uop.op is UOp.BC:
            continue
        head_addr = head.uop.x86_addr
        tail_addr = tail.uop.x86_addr
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
        for loc in locs[tail.index + 1:tail.index + 1 + HOIST_SCAN]:
            uop = loc.uop
            if OP_INFO[uop.op].boundary:
                break
            addr = uop.x86_addr
            if addr is None or addr < previous or addr >= tail_addr:
                break
            previous = addr
            if conflicts(uop, tail.uop):
                yield _v("FUS005",
                         f"tail was hoisted across a conflicting "
                         f"{uop.op.value} at x86 {addr:#x}", tail)
                break


# -- control transfers and exit stubs -----------------------------------------


@rule("CTL001", "control transfers must land on micro-op boundaries")
def _check_ctl001(ctx: VerifyContext) -> Iterator[Violation]:
    for loc in ctx.cfg.bad_targets:
        target = loc.offset + loc.uop.length + loc.uop.imm
        yield _v("CTL001",
                 f"{loc.uop.op.value} displacement {loc.uop.imm:+d} lands "
                 f"at byte {target}, not on a micro-op boundary within "
                 f"the translation", loc)


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
def _check_stb001(ctx: VerifyContext) -> Iterator[Violation]:
    translation = ctx.translation
    for stub in translation.exits:
        offset = stub.stub_addr - translation.native_addr
        index = ctx.cfg.index_at_offset.get(offset)
        if index is None:
            yield _v("STB001", f"exit stub at +{offset:#x} does not sit "
                               f"on a micro-op boundary",
                     offset=offset)
            continue
        loc = ctx.locs[index]
        if stub.x86_target is None:
            if loc.uop.op is not UOp.VMEXIT:
                yield _v("STB001", f"indirect exit records '{loc.uop}', "
                                   f"expected VMEXIT", loc)
            continue
        for error in _stub_shape_errors(ctx.uops[index:index + 3],
                                        stub.x86_target):
            yield _v("STB001", error, loc)


@rule("STB002", "VMEXIT hands the continuation to the VMM in R29")
def _check_stb002(ctx: VerifyContext) -> Iterator[Violation]:
    for loc in ctx.cfg.branches:
        if loc.uop.op is UOp.VMEXIT and loc.uop.rs1 != R_EXIT_TARGET:
            yield _v("STB002",
                     f"VMEXIT reads {reg_name(loc.uop.rs1)}; the "
                     f"dispatcher expects the continuation in "
                     f"{reg_name(R_EXIT_TARGET)}", loc)


# -- dataflow hygiene ----------------------------------------------------------


@rule("SCR001", "VMM registers are defined before every use")
def _check_scr001(ctx: VerifyContext) -> Iterator[Violation]:
    for loc, fact in zip(ctx.locs, ctx.facts):
        if fact is None:
            continue  # unreachable from entry
        reads = (loc.word.facts or word_facts(loc.word))[0]
        undefined = reads & VMM_MASK & ~fact[0]
        for reg in regs_in(undefined) if undefined else ():
            yield _v("SCR001",
                     f"reads VMM register {reg_name(reg)} which is "
                     f"not defined on every path from entry", loc)


@rule("PRS001", "architected flags are intact at every VMM handoff")
def _check_prs001(ctx: VerifyContext) -> Iterator[Violation]:
    for loc in ctx.cfg.branches:
        uop, fact = loc.uop, ctx.facts[loc.index]
        handoff = uop.op is UOp.VMEXIT or (
            uop.op is UOp.VMCALL and uop.imm != int(VMService.PROFILE))
        if not handoff or fact is None:
            continue
        if not fact[1][0]:
            yield _v("PRS001",
                     f"{uop.op.value} reached with clobbered architected "
                     f"flags (unbalanced RDFLG/WRFLG save window)", loc)


# -- encoding ------------------------------------------------------------------


@rule("ENC001", "every emitted micro-op is encodable")
def _check_enc001(ctx: VerifyContext) -> Iterator[Violation]:
    for index in ctx.unproven:
        loc, data = ctx.locs[index], ctx.encoded[index]
        if isinstance(data, UopEncodeError):
            yield _v("ENC001", f"'{loc.uop}' does not encode: {data}", loc)


@rule("ENC002", "encode -> decode is the identity on emitted micro-ops")
def _check_enc002(ctx: VerifyContext) -> Iterator[Violation]:
    # the context compared each unproven micro-op with its bytes' decode
    for index, decoded in ctx.misread.items():
        loc = ctx.locs[index]
        yield _v("ENC002",
                 f"round trip loses state: '{loc.uop}' decodes back "
                 f"as '{decoded}'", loc)


# -- code cache and chaining ---------------------------------------------------


def _patched_ranges(ctx: VerifyContext) -> List[Tuple[int, int]]:
    """Byte ranges chaining/redirection legitimately rewrote in memory."""
    translation = ctx.translation
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
def _check_cch001(ctx: VerifyContext) -> Iterator[Violation]:
    translation = ctx.translation
    if translation.native_len and \
            translation.native_len != ctx.cfg.total_bytes:
        yield _v("CCH001",
                 f"recorded micro-ops cover {ctx.cfg.total_bytes} bytes "
                 f"but native_len is {translation.native_len}",
                 entry=translation.entry, kind=translation.kind)
    patched = _patched_ranges(ctx)
    image = ctx.memory.read(translation.native_addr,
                            ctx.cfg.total_bytes + 2)
    for loc, data in zip(ctx.locs, ctx.encoded):
        if any(start <= loc.offset < end for start, end in patched):
            continue
        if isinstance(data, UopEncodeError):
            continue  # ENC001's finding
        window = image[loc.offset:loc.offset + 4]
        if window.startswith(data):
            continue  # the recorded micro-op's own bytes
        try:
            in_memory = decode_uop(window)
        except UopDecodeError as error:
            yield _v("CCH001", f"cache bytes do not decode: {error}", loc)
            continue
        if in_memory != decode_uop(data):
            yield _v("CCH001",
                     f"cache image holds '{in_memory}' where the "
                     f"translation recorded '{loc.uop}'", loc)


@rule("CHN001", "chained stubs jump to a live translation entry",
      requires=("translation", "memory", "directory"))
def _check_chn001(ctx: VerifyContext) -> Iterator[Violation]:
    translation = ctx.translation
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
def _check_chn002(ctx: VerifyContext) -> Iterator[Violation]:
    translation = ctx.translation
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
def _check_sid001(ctx: VerifyContext) -> Iterator[Violation]:
    translation = ctx.translation
    for loc in ctx.cfg.branches:
        if loc.uop.op is not UOp.VMCALL:
            continue
        native = translation.native_addr + loc.offset
        if native not in translation.side_table:
            yield _v("SID001",
                     "VMCALL has no side-table entry; the VMM cannot "
                     "reconstruct precise architected state", loc)
            continue
        if ctx.directory is not None:
            resolved = ctx.directory.resolve_side_table(native)
            if resolved is None or resolved[1] is not translation:
                yield _v("SID001",
                         "side-table entry is not registered with the "
                         "translation directory", loc)
