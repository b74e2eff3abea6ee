"""Intentional-violation corpus for the translation verifier.

Every rule in the pack has at least one hand-constructed illegal
sequence here that must be flagged with exactly that rule ID — no rule
is allowed to be vacuous.  The verifier reads bytes only: a stream is
written down as micro-ops, encoded, and screened as the bytes read back
(``verify_stream``).  Clean counterparts pin the absence of false
positives, and the dataflow engine gets direct unit coverage.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoDesignedVM, ref_superscalar, vm_soft
from repro.isa.fusible.encoding import (
    UopEncodeError,
    WordTable,
    encode_stream,
    encode_uop,
    stream_length,
    stream_words,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp
from repro.isa.fusible.registers import R_EXIT_TARGET
from repro.isa.x86lite import assemble
from repro.isa.x86lite.registers import Cond
from repro.memory import AddressSpace
from repro.translator.code_cache import (
    ExitStub,
    Translation,
    TranslationDirectory,
)
from repro.translator import fusion
from repro.verify import build_cfg, rule_ids, verifier, verify_translation
from repro.verify.dataflow import (
    defined_and_flags,
    definitely_defined,
    flag_provenance,
)
from repro.verify.rules import VerifyContext
from tests.sbt_oracle import on_uops, origin_runs
from tests.strategies import uops as any_uop

NOP = MicroOp(UOp.NOP)


def verify_stream(uops, **where):
    """The rule-pack over ``uops`` as their bytes read back: encoded,
    and read through ``VerifyContext.from_code`` with the ``x86_addr``
    of each micro-op (``where``: the translation, memory, directory);
    ``verifier.run_rules`` is looked up per call, so a test may watch
    the contexts."""
    uops = list(uops)
    return verifier.run_rules(VerifyContext.from_code(
        encode_stream(uops), [uop.x86_addr for uop in uops], **where))


def cfg_of(uops):
    """The CFG of ``uops`` as their bytes read back."""
    return build_cfg(stream_words(encode_stream(uops), WordTable()))


def ids(report):
    return {violation.rule_id for violation in report.violations}


def exit_stub(target, addr=None):
    """A canonical direct exit stub, written out longhand."""
    return [
        MicroOp(UOp.LUI, rd=R_EXIT_TARGET, imm=(target >> 13) & 0x7FFFF,
                x86_addr=addr),
        MicroOp(UOp.ORI, rd=R_EXIT_TARGET, rs1=R_EXIT_TARGET,
                imm=target & 0x1FFF, x86_addr=addr),
        MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET, x86_addr=addr),
    ]


def make_translation(uops, exits=(), side=(), native_addr=0x2000_0000,
                     entry=0x40_0000, kind="bbt", memory=None):
    """Hand-build a Translation (optionally backed by real memory)."""
    translation = Translation(entry=entry, kind=kind,
                              native_addr=native_addr,
                              native_len=stream_length(uops),
                              uop_count=len(uops),
                              code=encode_stream(uops),
                              origins=origin_runs(uops))
    for offset, stub_kind, target in exits:
        translation.exits.append(ExitStub(
            stub_addr=native_addr + offset, kind=stub_kind,
            x86_target=target))
    for offset, x86_addr in side:
        translation.side_table[native_addr + offset] = x86_addr
    if memory is not None:
        memory.write(native_addr, encode_stream(uops))
    return translation


# -- the corpus: every rule must have a failing fixture -----------------------


def fus001_nonalu_head():
    return verify_stream([
        MicroOp(UOp.MULL, rd=5, rs1=1, rs2=2, fused=True),  # multi-cycle
        MicroOp(UOp.ADD, rd=6, rs1=5, rs2=3),
    ])


def fus001_flagless_compare_branch():
    return verify_stream([
        MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),  # no .f bit
        MicroOp(UOp.BC, cond=Cond.NE, imm=0),
        NOP,
    ])


def fus002_overlapping_pairs():
    # the historical close_region bug: the flag producer fused with a
    # region-ending BC even though it was already the tail of a pair
    return verify_stream([
        MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
        MicroOp(UOp.AND, rd=6, rs1=5, rs2=2, setflags=True, fused=True),
        MicroOp(UOp.BC, cond=Cond.NE, imm=0),
        NOP,
    ])


def fus002_dangling_head():
    return verify_stream([MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True)])


def fus002_tail_not_consuming():
    return verify_stream([
        MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
        MicroOp(UOp.ADD, rd=6, rs1=2, rs2=3),  # ignores r5
    ])


def fus003_four_source_pair():
    return verify_stream([
        MicroOp(UOp.ADD, rd=5, rs1=1, rs2=2, fused=True),
        MicroOp(UOp.ADD, rd=7, rs1=3, rs2=4),  # r1,r2,r3,r4: 4 ports
    ])


def fus004_barrier_head():
    return verify_stream([
        MicroOp(UOp.VMCALL, imm=3, fused=True),
        NOP,
    ])


def fus004_pair_into_jump():
    return verify_stream([
        MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
        MicroOp(UOp.JMP, imm=-8),  # loops to offset 0
    ])


def fus005_hoist_across_flag_writer():
    # the tail (architecturally at 0x108) was hoisted above the flag
    # writer at 0x104; both write flags, so the move was illegal
    return verify_stream([
        MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, x86_addr=0x100, fused=True),
        MicroOp(UOp.ADD2, rd=6, rs1=5, setflags=True, x86_addr=0x108),
        MicroOp(UOp.SUBI, rd=2, rs1=2, imm=1, setflags=True,
                x86_addr=0x104),
    ])


def ctl001_misaligned_branch():
    return verify_stream([
        MicroOp(UOp.BC, cond=Cond.E, imm=3),  # lands at byte 7
        NOP,
    ])


def ctl002_runs_off_its_end():
    # a block cut after a plain ALU op: the machine would run on into
    # whatever bytes the code cache holds next
    translation = make_translation([
        MicroOp(UOp.ADDI, rd=1, rs1=1, imm=1),
        MicroOp(UOp.SHLI, rd=8, rs1=3, imm=1)])
    return verify_translation(translation)


def stb001_truncated_stub():
    target = 0x40_0100
    uops = exit_stub(target)[:2]  # VMEXIT missing
    translation = make_translation(
        uops, exits=[(0, "jump", target)])
    return verify_translation(translation)


def stb001_wrong_target_immediates():
    uops = exit_stub(0x40_0100)
    translation = make_translation(
        uops, exits=[(0, "jump", 0x40_0200)])  # stub rebuilds 0x400100
    return verify_translation(translation)


def stb002_vmexit_wrong_register():
    return verify_stream([MicroOp(UOp.VMEXIT, rs1=5)])


def scr001_scratch_use_before_def():
    return verify_stream([MicroOp(UOp.ADD, rd=1, rs1=16, rs2=2)])


def scr001_defined_on_one_path_only():
    # r16 is defined only on the branch-taken path
    return verify_stream([
        MicroOp(UOp.BC, cond=Cond.E, imm=4),
        MicroOp(UOp.ADDI, rd=16, rs1=31, imm=7),
        MicroOp(UOp.ADD, rd=1, rs1=16, rs2=2),  # join: maybe undefined
    ])


def prs001_unbalanced_save_window():
    # flags saved and clobbered, but never restored before the VMEXIT
    uops = [
        MicroOp(UOp.RDFLG, rd=18),
        MicroOp(UOp.ADDI, rd=17, rs1=31, imm=1, setflags=True),
    ] + exit_stub(0x40_0100)
    return verify_stream(uops)


def cch001_corrupted_cache_image():
    memory = AddressSpace()
    uops = [MicroOp(UOp.ADDI, rd=1, rs1=1, imm=5)] + exit_stub(0x40_0100)
    translation = make_translation(uops, exits=[(4, "jump", 0x40_0100)],
                                   memory=memory)
    # flip the body micro-op behind the translation's back
    memory.write(translation.native_addr,
                 encode_uop(MicroOp(UOp.ADDI, rd=2, rs1=2, imm=9)))
    return verify_translation(translation, memory=memory)


def chn001_stale_chain_target():
    memory = AddressSpace()
    directory = TranslationDirectory(memory)
    target = 0x40_0100
    uops = exit_stub(target)
    translation = make_translation(uops, exits=[(0, "jump", target)],
                                   memory=memory)
    stub = translation.exits[0]
    # chain the stub to an address where no live translation exists
    stale = translation.native_addr + 0x100
    memory.write(stub.stub_addr, encode_uop(
        MicroOp(UOp.JMP, imm=stale - (stub.stub_addr + 4))))
    stub.chained_to = stale
    return verify_translation(translation, memory=memory,
                              directory=directory)


def chn002_unpatched_stub_not_vmexit():
    memory = AddressSpace()
    target = 0x40_0100
    uops = exit_stub(target)
    translation = make_translation(uops, exits=[(0, "jump", target)],
                                   memory=memory)
    # stomp the stub's VMEXIT in memory; the stub is not chained, so the
    # memory image must still leave through VMEXIT
    memory.write(translation.native_addr + 8, encode_uop(NOP))
    return verify_translation(translation, memory=memory)


def sid001_vmcall_without_side_table():
    translation = make_translation([MicroOp(UOp.VMCALL, imm=0)])
    return verify_translation(translation)


CORPUS = [
    ("FUS001", fus001_nonalu_head),
    ("FUS001", fus001_flagless_compare_branch),
    ("FUS002", fus002_overlapping_pairs),
    ("FUS002", fus002_dangling_head),
    ("FUS002", fus002_tail_not_consuming),
    ("FUS003", fus003_four_source_pair),
    ("FUS004", fus004_barrier_head),
    ("FUS004", fus004_pair_into_jump),
    ("FUS005", fus005_hoist_across_flag_writer),
    ("CTL001", ctl001_misaligned_branch),
    ("CTL002", ctl002_runs_off_its_end),
    ("STB001", stb001_truncated_stub),
    ("STB001", stb001_wrong_target_immediates),
    ("STB002", stb002_vmexit_wrong_register),
    ("SCR001", scr001_scratch_use_before_def),
    ("SCR001", scr001_defined_on_one_path_only),
    ("PRS001", prs001_unbalanced_save_window),
    ("CCH001", cch001_corrupted_cache_image),
    ("CHN001", chn001_stale_chain_target),
    ("CHN002", chn002_unpatched_stub_not_vmexit),
    ("SID001", sid001_vmcall_without_side_table),
]


#: every ``(rule_id, micro-op index)`` each fixture raised at PR 13,
#: before the rules shared one walk (one encoding, one dataflow pass,
#: one offset map per context): the screen must find exactly these,
#: and CTL002 wherever a translation ends before its stub does
PARENT_FINDINGS = {
    "fus001_nonalu_head": {("FUS001", 0)},
    "fus001_flagless_compare_branch": {("FUS001", 0)},
    "fus002_overlapping_pairs": {("FUS002", 0)},
    "fus002_dangling_head": {("FUS002", 0)},
    "fus002_tail_not_consuming": {("FUS002", 1)},
    "fus003_four_source_pair": {("FUS002", 1), ("FUS003", 0)},
    "fus004_barrier_head": {("FUS001", 0), ("FUS002", 1), ("FUS004", 0)},
    "fus004_pair_into_jump": {("FUS002", 1), ("FUS004", 1)},
    "fus005_hoist_across_flag_writer": {("FUS005", 1)},
    "ctl001_misaligned_branch": {("CTL001", 0)},
    "ctl002_runs_off_its_end": {("CTL002", 1)},
    "stb001_truncated_stub": {("STB001", 0), ("CTL002", 1)},
    "stb001_wrong_target_immediates": {("STB001", 0)},
    "stb002_vmexit_wrong_register": {("STB002", 0)},
    "scr001_scratch_use_before_def": {("SCR001", 0)},
    "scr001_defined_on_one_path_only": {("SCR001", 2)},
    "prs001_unbalanced_save_window": {("PRS001", 4)},
    "cch001_corrupted_cache_image": {("CCH001", 0)},
    "chn001_stale_chain_target": {("CHN001", None)},
    "chn002_unpatched_stub_not_vmexit": {("CCH001", 2), ("CHN002", None)},
    "sid001_vmcall_without_side_table": {("SID001", 0)},
}


class TestCorpus:
    @pytest.mark.parametrize("expected,fixture", CORPUS,
                             ids=[f"{rule}-{fn.__name__}"
                                  for rule, fn in CORPUS])
    def test_flagged_with_specific_rule(self, expected, fixture):
        report = fixture()
        assert expected in ids(report), \
            f"expected {expected}, got {sorted(ids(report))}:\n" \
            f"{report.format()}"
        assert {(violation.rule_id, violation.index)
                for violation in report.violations} == \
            PARENT_FINDINGS[fixture.__name__], report.format()

    def test_no_rule_is_vacuous(self):
        covered = {rule for rule, _fixture in CORPUS}
        assert covered == set(rule_ids())

    def test_violations_carry_microop_diagnostics(self):
        report = scr001_scratch_use_before_def()
        (violation,) = report.violations
        assert violation.index == 0
        assert violation.offset == 0
        assert violation.context  # surrounding disassembly present
        assert "r16" in violation.message

    def test_report_is_machine_readable(self):
        report = fus003_four_source_pair()
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["violation_counts"].get("FUS003", 0) >= 1
        assert all("rule" in entry for entry in payload["violations"])


#: ``ret 0x1000`` cracks to an ADDI of 4 + 0x1000, past its imm13 field
RET_PAST_IMM13 = """
start:
    sub esp, 0x4000
    mov ecx, 3
again:
    call f
    sub esp, 0x1000
    dec ecx
    jnz again
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
f:
    add esi, 7
    ret 0x1000
"""


class TestEncodingHoldsAtEmit:
    def test_a_micro_op_that_does_not_encode_is_a_translation_fault(self):
        """No screen sees a micro-op that does not encode: the
        translator's ``encode_uop`` raises, the block is a translation
        fault, and the interpreter runs it."""
        with pytest.raises(UopEncodeError, match="imm13 4100"):
            encode_uop(MicroOp(UOp.ADDI, rd=4, rs1=4, imm=4100))
        runs = []
        for config in (vm_soft(), ref_superscalar()):
            vm = CoDesignedVM(config, hot_threshold=2)
            vm.load(assemble(RET_PAST_IMM13))
            vm.run()
            runs.append(((vm.state.exit_code, vm.state.output,
                          list(vm.state.regs)),
                         vm.stats().get("translation_faults", 0)))
        (translated, faults), (interpreted, _none) = runs
        assert faults >= 1
        assert translated == interpreted and translated[1] == [21]


class TestCleanStreams:
    def test_legal_fused_pair_passes(self):
        report = verify_stream([
            MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
            MicroOp(UOp.ADD, rd=6, rs1=5, rs2=2),
        ])
        assert report.ok, report.format()

    def test_legal_compare_branch_pair_passes(self):
        report = verify_stream([
            MicroOp(UOp.SUBI, rd=31, rs1=1, imm=3, setflags=True,
                    fused=True),
            MicroOp(UOp.BC, cond=Cond.E, imm=0),
            NOP,
        ])
        assert report.ok, report.format()

    def test_canonical_stub_translation_passes(self):
        memory = AddressSpace()
        target = 0x40_0100
        uops = exit_stub(target)
        translation = make_translation(uops, exits=[(0, "jump", target)],
                                       memory=memory)
        report = verify_translation(translation, memory=memory)
        assert report.ok, report.format()

    def test_balanced_save_window_passes(self):
        uops = [
            MicroOp(UOp.RDFLG, rd=18),
            MicroOp(UOp.ADDI, rd=17, rs1=31, imm=1, setflags=True),
            MicroOp(UOp.WRFLG, rs1=18),
        ] + exit_stub(0x40_0100)
        report = verify_stream(uops)
        assert report.ok, report.format()


class TestFusionRegression:
    """The verifier caught a real emitter bug: compare-branch fusion in
    ``close_region`` could mark a pair *tail* as a second head, creating
    overlapping pairs.  Pin the fix."""

    def test_compare_branch_fusion_never_overlaps_pairs(self):
        uops = [
            MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1),
            MicroOp(UOp.AND, rd=6, rs1=5, rs2=2, setflags=True),
            MicroOp(UOp.BC, cond=Cond.NE, imm=0),
            NOP,
        ]
        fused, stats = on_uops(fusion.fuse_microops, uops)
        assert stats.pairs == 1
        report = verify_stream(fused)
        assert report.ok, report.format()

    def test_compare_branch_fusion_still_happens_when_legal(self):
        uops = [
            MicroOp(UOp.SUBI, rd=31, rs1=1, imm=3, setflags=True),
            MicroOp(UOp.BC, cond=Cond.E, imm=0),
            NOP,
        ]
        fused, stats = on_uops(fusion.fuse_microops, uops)
        assert stats.pairs == 1
        assert fused[0].fused
        assert verify_stream(fused).ok


class TestControlTransfersAreFoundOnce:
    def test_the_handoff_rules_walk_only_control_transfers(self):
        # STB002, PRS001 and SID001 walk ``cfg.branches``, collected in
        # the CFG's one pass: what they look for must be in it
        assert OP_INFO[UOp.VMEXIT].branch and OP_INFO[UOp.VMCALL].branch
        stream = [
            MicroOp(UOp.ADDI, rd=1, rs1=1, imm=1),
            MicroOp(UOp.BC, cond=Cond.E, imm=4),
            MicroOp(UOp.VMCALL, imm=0),
            NOP,
            MicroOp(UOp.VMEXIT, rs1=3),
        ]
        cfg = cfg_of(stream)
        assert [loc.index for loc in cfg.branches] == [1, 2, 4]
        found = {v.rule_id for v in verify_stream(stream).violations}
        assert "STB002" in found        # VMEXIT through r3, not R29


class TestDataflowEngine:
    def test_definitely_defined_intersects_paths(self):
        cfg = cfg_of([
            MicroOp(UOp.BC, cond=Cond.E, imm=4),
            MicroOp(UOp.ADDI, rd=16, rs1=31, imm=7),   # skipped if taken
            MicroOp(UOp.ADDI, rd=17, rs1=31, imm=8),   # join point
        ])
        before = definitely_defined(cfg)
        # register sets are masks: bit 16 is r16
        assert not before[1] >> 16 & 1  # not defined at the ADDI itself
        # the join sees the taken path, where the ADDI never ran
        assert not before[2] >> 16 & 1
        assert before[2] >> 1 & 1       # an architected register is

    def test_flag_provenance_tracks_save_window(self):
        cfg = cfg_of([
            MicroOp(UOp.RDFLG, rd=18),
            MicroOp(UOp.ADDI, rd=17, rs1=31, imm=1, setflags=True),
            MicroOp(UOp.WRFLG, rs1=18),
            MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET),
        ])
        states = flag_provenance(cfg)
        assert states[1] == (True, 18)    # window open, flags still good
        assert states[2] == (False, 18)   # clobbered inside the window
        assert states[3] == (True, None)  # restored at the VMEXIT


def worklist_solve(analysis, cfg):
    """The forward solver as it was before the address-order sweep, kept
    as the oracle: a LIFO worklist iterates block in-states to the
    fixpoint, then every block is walked once more to collect the state
    before each micro-op."""
    block_in = [None] * len(cfg.blocks)
    if not cfg.blocks:
        return []
    block_in[0] = analysis.entry_state()
    worklist = [0]
    while worklist:
        bid = worklist.pop()
        state = block_in[bid]
        for loc in cfg.blocks[bid].locs:
            state = analysis.transfer(state, loc)
        for succ in cfg.blocks[bid].succs:
            merged = state if block_in[succ] is None \
                else analysis.meet(block_in[succ], state)
            if merged != block_in[succ]:
                block_in[succ] = merged
                worklist.append(succ)
    before = [None] * len(cfg.locs)
    for block in cfg.blocks:
        state = block_in[block.bid]
        if state is None:
            continue
        for loc in block.locs:
            before[loc.index] = state
            state = analysis.transfer(state, loc)
    return before


class Both:
    """Two independent forward analyses as one, the state the pair of
    their states: the product the screen's fused ``defined_and_flags``
    transfer is held to (it was ``dataflow._Both`` until the transfer
    was fused over the word table's facts)."""

    def __init__(self, left, right):
        self._left, self._right = left, right

    def entry_state(self):
        return (self._left.entry_state(), self._right.entry_state())

    def meet(self, left, right):
        return (self._left.meet(left[0], right[0]),
                self._right.meet(left[1], right[1]))

    def transfer(self, state, loc):
        return (self._left.transfer(state[0], loc),
                self._right.transfer(state[1], loc))


def product_oracle():
    from repro.verify import dataflow
    return Both(dataflow._DefinitelyDefined(dataflow.ENTRY_DEFINED),
                dataflow._FlagProvenance())


def has_back_edge(cfg):
    return any(succ <= block.bid for block in cfg.blocks
               for succ in block.succs)


@st.composite
def branchy_cfgs(draw):
    """CFG of a generated stream whose relative branches mostly land on
    micro-op boundaries of the stream (forwards and backwards: joins,
    loops, unreachable tails), and sometimes nowhere."""
    stream = draw(st.lists(any_uop, min_size=1, max_size=24))
    locs = cfg_of(stream).locs
    retargeted = []
    for loc in locs:
        uop = loc.uop
        if OP_INFO[uop.op].relative and draw(st.integers(0, 7)):
            target = draw(st.sampled_from(locs)).offset
            uop = replace(uop, imm=target - (loc.offset + uop.length))
        retargeted.append(uop)
    return cfg_of(retargeted)


class TestOneWalk:
    """The screen's shared dataflow pass against the separate ones."""

    @given(cfg=branchy_cfgs())
    @settings(max_examples=200, deadline=None)
    def test_product_analysis_equals_the_two_analyses(self, cfg):
        defined, flags = definitely_defined(cfg), flag_provenance(cfg)
        assert defined_and_flags(cfg) == [
            None if left is None else (left, right)
            for left, right in zip(defined, flags)]

    @given(cfg=branchy_cfgs())
    @settings(max_examples=600, deadline=None)
    def test_fused_transfer_equals_the_product_oracle(self, cfg):
        # the fused analysis, swept, against the product of the two
        # per-micro-op analyses under the worklist solver: neither the
        # facts nor the solver are shared
        assert defined_and_flags(cfg) == worklist_solve(product_oracle(),
                                                        cfg)

    @given(cfg=branchy_cfgs())
    @settings(max_examples=600, deadline=None)
    def test_sweep_solver_equals_the_worklist_oracle(self, cfg):
        from repro.verify import dataflow
        for analysis in (dataflow._DefinitelyDefined(dataflow.ENTRY_DEFINED),
                         dataflow._FlagProvenance(),
                         dataflow._DefinedAndFlags()):
            assert analysis.run(cfg) == worklist_solve(analysis, cfg)

    @given(cfg=branchy_cfgs().filter(lambda cfg: not has_back_edge(cfg)))
    @settings(max_examples=100, deadline=None)
    def test_a_stream_without_a_back_edge_takes_one_sweep(self, cfg):
        from repro.verify import dataflow
        walked = []

        class Counting(dataflow._FlagProvenance):
            def transfer(self, state, loc):
                walked.append(loc.index)
                return super().transfer(state, loc)

        before = Counting().run(cfg)
        assert walked == [index for index, state in enumerate(before)
                          if state is not None]

    def test_the_generator_draws_loops(self):
        from hypothesis import find
        looping = find(branchy_cfgs(), has_back_edge)
        assert definitely_defined(looping) is not None

    def test_a_re_save_inside_an_open_window_reads_the_same_in_any_order(
            self):
        """The stream that used to tell solvers apart: the LIFO worklist
        reaches the second RDFLG over the JMP first, with the flags
        still intact, the sweep only once both paths have merged.  With
        the saved copy of disagreeing paths (and of a re-save of
        clobbered flags) modelled as ``CONFLICT`` the transfer is
        monotone and both read the join the same, conservative, way."""
        from repro.verify import dataflow
        cfg = cfg_of([
            MicroOp(UOp.RDFLG, rd=18),
            MicroOp(UOp.BC, cond=Cond.E, imm=4),        # -> the ADDI.f
            MicroOp(UOp.JMP, imm=4),                    # -> the 2nd RDFLG
            MicroOp(UOp.ADDI, rd=17, rs1=31, imm=1, setflags=True),
            MicroOp(UOp.RDFLG, rd=19),
            MicroOp(UOp.JMP, imm=0),
            MicroOp(UOp.WRFLG, rs1=18),
            MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET),
        ])
        analysis = dataflow._FlagProvenance()
        swept = analysis.run(cfg)
        assert swept == worklist_solve(analysis, cfg)
        assert swept[5] == (False, dataflow.CONFLICT)
        assert swept[-1] == (False, None)

    @given(uop=any_uop, arch=st.booleans(),
           saved=st.one_of(st.none(), st.integers(0, 31)))
    @settings(max_examples=1000, deadline=None)
    def test_flag_provenance_is_monotone(self, uop, arch, saved):
        """What makes sweep == worklist a theorem and not a search: every
        state below ``(arch, saved)`` transfers to a state below its
        transfer, and the meet is the greatest lower bound."""
        from repro.verify import dataflow
        analysis = dataflow._FlagProvenance()

        def below(low, high):
            return low[0] <= high[0] and low[1] in (high[1],
                                                    dataflow.CONFLICT)
        loc = cfg_of([uop]).locs[0]
        high = (arch, saved)
        for low in {(False, saved), (arch, dataflow.CONFLICT),
                    (False, dataflow.CONFLICT), high}:
            assert below(low, high)
            assert below(analysis.transfer(low, loc),
                         analysis.transfer(high, loc))
            assert analysis.meet(low, high) == low == \
                analysis.meet(high, low)
        other = (not arch, None if saved is not None else 7)
        met = analysis.meet(high, other)
        assert met == (False, dataflow.CONFLICT)
        assert below(met, high) and below(met, other)
