"""Macro-op fusion tests: pairing rules, legality, and semantic
preservation under reordering."""

from hypothesis import given, settings, strategies as st

from repro.isa.fusible import FusibleMachine, MicroOp, UOp
from repro.isa.fusible.opcodes import FUSIBLE_HEAD_OPS
from repro.isa.fusible.registers import R_ZERO
from repro.isa.x86lite.registers import Cond
from repro.memory import AddressSpace
from repro.translator import fusion, sbt
from tests.sbt_oracle import on_uops


def uop(op, **kwargs):
    return MicroOp(op, **kwargs)


def fuse_microops(uops):
    return on_uops(fusion.fuse_microops, uops)


def eliminate_dead_flags(uops):
    return on_uops(sbt.eliminate_dead_flags, uops)


class TestPairing:
    def test_adjacent_dependent_pair_fuses(self):
        uops = [uop(UOp.SHLI, rd=8, rs1=1, imm=2),
                uop(UOp.ADD, rd=9, rs1=8, rs2=2)]
        fused, stats = fuse_microops(uops)
        assert stats.pairs == 1
        assert fused[0].fused and not fused[1].fused

    def test_independent_ops_do_not_fuse(self):
        uops = [uop(UOp.ADDI, rd=1, rs1=R_ZERO, imm=1),
                uop(UOp.ADDI, rd=2, rs1=R_ZERO, imm=2)]
        _fused, stats = fuse_microops(uops)
        assert stats.pairs == 0

    def test_tail_hoisted_past_independent_uop(self):
        uops = [uop(UOp.SHLI, rd=8, rs1=1, imm=2),       # head
                uop(UOp.ADDI, rd=5, rs1=R_ZERO, imm=7),  # independent
                uop(UOp.ADD, rd=9, rs1=8, rs2=2)]        # consumer
        fused, stats = fuse_microops(uops)
        assert stats.pairs == 1
        assert stats.tails_hoisted == 1
        assert fused[0].op is UOp.SHLI and fused[0].fused
        assert fused[1].op is UOp.ADD
        assert fused[2].op is UOp.ADDI

    def test_hoist_blocked_by_dependence(self):
        # the consumer also reads r5, which is written in between: the
        # tail cannot be hoisted up to the SHLI; instead it pairs in
        # place with the ADDI (a genuine dependence through r5), and the
        # original order is preserved.
        uops = [uop(UOp.SHLI, rd=8, rs1=1, imm=2),
                uop(UOp.ADDI, rd=5, rs1=R_ZERO, imm=7),
                uop(UOp.ADD, rd=9, rs1=8, rs2=5)]
        fused, stats = fuse_microops(uops)
        assert stats.tails_hoisted == 0
        assert [u.op for u in fused] == [UOp.SHLI, UOp.ADDI, UOp.ADD]
        assert not fused[0].fused  # the blocked pair did not form
        assert stats.pairs == 1 and fused[1].fused

    def test_long_latency_head_rejected(self):
        uops = [uop(UOp.MULL, rd=8, rs1=1, rs2=2),
                uop(UOp.ADD, rd=9, rs1=8, rs2=2)]
        _fused, stats = fuse_microops(uops)
        assert stats.pairs == 0  # multiply is not single-cycle

    def test_load_tail_allowed(self):
        uops = [uop(UOp.ADDI, rd=8, rs1=3, imm=4),
                uop(UOp.LDW, rd=9, rs1=8, imm=0)]
        _fused, stats = fuse_microops(uops)
        assert stats.pairs == 1

    def test_source_port_limit(self):
        # head reads r1,r2; tail adds r3,r4 -> 4 distinct sources
        uops = [uop(UOp.ADD, rd=8, rs1=1, rs2=2),
                uop(UOp.ADD, rd=9, rs1=8, rs2=3),   # 3 sources: ok
                uop(UOp.ADD, rd=10, rs1=3, rs2=4),
                uop(UOp.ADD, rd=11, rs1=10, rs2=10)]
        fused, stats = fuse_microops(uops)
        assert stats.pairs == 2

    def test_over_port_limit_rejected(self):
        uops = [uop(UOp.ADD, rd=8, rs1=1, rs2=2),
                uop(UOp.ADC, rd=9, rs1=8, rs2=3)]
        # ADC reads flags... use plain chain with too many sources
        uops = [uop(UOp.ADD, rd=8, rs1=1, rs2=2),
                uop(UOp.SEL, rd=9, rs1=8, cond=Cond.E)]
        # SEL reads rd (r9) too: sources {1,2,9} = 3 -> allowed
        _fused, stats = fuse_microops(uops)
        assert stats.pairs <= 1

    def test_compare_branch_fusion(self):
        uops = [uop(UOp.SUBI, rd=R_ZERO, rs1=1, imm=0, setflags=True),
                uop(UOp.BC, cond=Cond.E, imm=12)]
        fused, stats = fuse_microops(uops)
        assert stats.pairs == 1
        assert fused[0].fused

    def test_no_fusion_across_branch(self):
        uops = [uop(UOp.ADDI, rd=8, rs1=1, imm=1),
                uop(UOp.JMP, imm=4),
                uop(UOp.ADD, rd=9, rs1=8, rs2=1)]
        _fused, stats = fuse_microops(uops)
        assert stats.pairs == 0

    def test_no_fusion_across_vmcall(self):
        uops = [uop(UOp.ADDI, rd=8, rs1=1, imm=1),
                uop(UOp.VMCALL, imm=0),
                uop(UOp.ADD, rd=9, rs1=8, rs2=1)]
        _fused, stats = fuse_microops(uops)
        assert stats.pairs == 0

    def test_branch_positions_never_move(self):
        uops = [uop(UOp.ADDI, rd=8, rs1=1, imm=1),
                uop(UOp.BC, cond=Cond.E, imm=24),
                uop(UOp.ADDI, rd=9, rs1=2, imm=1),
                uop(UOp.JMP, imm=-16)]
        fused, _stats = fuse_microops(uops)
        assert [u.op for u in fused if u.op in (UOp.BC, UOp.JMP)] == \
            [UOp.BC, UOp.JMP]
        assert fused[1].op is UOp.BC
        assert fused[3].op is UOp.JMP


class TestDeadFlagElimination:
    def test_overwritten_flags_cleared(self):
        uops = [uop(UOp.ADDI, rd=1, rs1=1, imm=1, setflags=True),
                uop(UOp.ADDI, rd=2, rs1=2, imm=1, setflags=True)]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 1
        assert not out[0].setflags and out[1].setflags

    def test_flags_before_branch_kept(self):
        uops = [uop(UOp.SUBI, rd=1, rs1=1, imm=1, setflags=True),
                uop(UOp.BC, cond=Cond.NE, imm=12)]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 0
        assert out[0].setflags

    def test_dead_compare_dropped(self):
        uops = [uop(UOp.CMP2, rd=1, rs1=2),
                uop(UOp.ADDI, rd=3, rs1=3, imm=1, setflags=True)]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 1
        assert [u.op for u in out] == [UOp.ADDI]

    def test_live_out_flags_kept(self):
        uops = [uop(UOp.ADDI, rd=1, rs1=1, imm=1, setflags=True)]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 0 and out[0].setflags

    def test_flags_at_exit_kept(self):
        uops = [uop(UOp.ADDI, rd=1, rs1=1, imm=1, setflags=True),
                uop(UOp.VMEXIT, rs1=29),
                ]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 0

    def test_flag_reader_keeps_nearest_writer_only(self):
        uops = [uop(UOp.ADDI, rd=1, rs1=1, imm=1, setflags=True),  # dead
                uop(UOp.ADDI, rd=2, rs1=2, imm=1, setflags=True),  # live
                uop(UOp.SEL, rd=3, rs1=4, cond=Cond.E)]
        out, eliminated = eliminate_dead_flags(uops)
        assert eliminated == 1
        assert not out[0].setflags and out[1].setflags


# -- semantic preservation under fusion ------------------------------------------

_ALU_R = [UOp.ADD, UOp.SUB, UOp.AND, UOp.OR, UOp.XOR]
_regs = st.integers(0, 10)


@st.composite
def random_straightline(draw):
    count = draw(st.integers(2, 14))
    uops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["r", "i", "mov"]))
        if kind == "r":
            uops.append(MicroOp(draw(st.sampled_from(_ALU_R)),
                                rd=draw(_regs), rs1=draw(_regs),
                                rs2=draw(_regs),
                                setflags=draw(st.booleans())))
        elif kind == "i":
            uops.append(MicroOp(UOp.ADDI, rd=draw(_regs), rs1=draw(_regs),
                                imm=draw(st.integers(-100, 100)),
                                setflags=draw(st.booleans())))
        else:
            uops.append(MicroOp(UOp.MOV2, rd=draw(_regs),
                                rs1=draw(_regs)))
    return uops


def run_uops(uops, seed_regs):
    machine = FusibleMachine(AddressSpace())
    machine.regs[:11] = seed_regs
    machine.execute_uops(uops)
    return list(machine.regs), (machine.cf, machine.zf, machine.sf,
                                machine.of)


class TestSemanticPreservation:
    @given(uops=random_straightline(),
           seed=st.lists(st.integers(0, 0xFFFFFFFF), min_size=11,
                         max_size=11))
    @settings(max_examples=200, deadline=None)
    def test_fusion_preserves_register_state(self, uops, seed):
        fused, _stats = fuse_microops(uops)
        plain_regs, plain_flags = run_uops(uops, seed)
        fused_regs, fused_flags = run_uops(fused, seed)
        assert plain_regs == fused_regs
        assert plain_flags == fused_flags

    @given(uops=random_straightline())
    @settings(max_examples=100, deadline=None)
    def test_fusion_structural_invariants(self, uops):
        fused, stats = fuse_microops(uops)
        assert len(fused) == len(uops)  # reorder only, no drop/add
        assert sorted(str(u.op) for u in fused) == \
            sorted(str(u.op) for u in uops)
        # every fused head is followed by its consumer
        for index, head in enumerate(fused):
            if head.fused:
                assert index + 1 < len(fused)
                tail = fused[index + 1]
                assert head.op in FUSIBLE_HEAD_OPS
                assert not tail.fused  # no chained pairs
                assert head.dest() in tail.sources() or tail.op is UOp.BC
