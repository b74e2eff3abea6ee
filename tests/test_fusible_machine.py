"""Native machine tests: micro-op semantics, control flow, VM exits."""

import pytest
from hypothesis import given, settings

from repro.isa.fusible import (
    ExitEvent,
    FusibleMachine,
    MicroOp,
    NativeBudgetExhausted,
    NativeMachineError,
    UOp,
    decode_uop,
    encode_stream,
)
from repro.isa.fusible.encoding import (
    UopDecodeError,
    WordTable,
    is_canonical,
)
from repro.isa.fusible.registers import R_ZERO
from repro.isa.x86lite.registers import Cond
from repro.memory import AddressSpace
from tests.strategies import (
    NATIVE_CODE_PAGE,
    NATIVE_DATA_BASE,
    native_programs,
)

CODE = 0x1000_0000


def run_code(uops, setup=None, max_uops=10_000):
    memory = AddressSpace()
    memory.write(CODE, encode_stream(uops))
    machine = FusibleMachine(memory)
    if setup:
        setup(machine)
    event = machine.run(CODE, max_uops=max_uops)
    return machine, event


class TestAlu:
    def test_addi_and_halt(self):
        machine, event = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=41),
            MicroOp(UOp.ADDI2, rd=1, imm=1),
            MicroOp(UOp.HALT),
        ])
        assert event.kind == "halt"
        assert machine.regs[1] == 42

    def test_lui_ori_builds_constant(self):
        value = 0xDEADBEEF
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=5, imm=value >> 13),
            MicroOp(UOp.ORI, rd=5, rs1=5, imm=value & 0x1FFF),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[5] == value

    def test_zero_register_is_immutable(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=R_ZERO, rs1=R_ZERO, imm=99),
            MicroOp(UOp.HALT),
        ])
        assert machine.get_reg(R_ZERO) == 0

    def test_flags_only_with_setflags(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0),
            MicroOp(UOp.HALT),
        ])
        assert not machine.zf  # no .f, no flag update

    def test_setflags_zero(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.HALT),
        ])
        assert machine.zf

    def test_sel_conditional_move(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=7),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.SEL, rd=3, rs1=1, cond=Cond.E),
            MicroOp(UOp.SEL, rd=4, rs1=1, cond=Cond.NE),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[3] == 7   # ZF set -> taken
        assert machine.regs[4] == 0   # not taken

    def test_incf_preserves_carry(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=-1),
            MicroOp(UOp.ADDI2, rd=1, imm=1, setflags=True),  # sets CF
            MicroOp(UOp.INCF, rd=2, rs1=2, setflags=True),
            MicroOp(UOp.HALT),
        ])
        assert machine.cf

    def test_mulh_signed(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=-2),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=3),
            MicroOp(UOp.MULH, rd=3, rs1=1, rs2=2),
            MicroOp(UOp.MULL, rd=4, rs1=1, rs2=2),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[4] == 0xFFFFFFFA  # -6 low
        assert machine.regs[3] == 0xFFFFFFFF  # -6 high


class TestMemory:
    def test_store_load_roundtrip(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0x123),
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.STW, rd=1, rs1=2, imm=8),
            MicroOp(UOp.LDW, rd=3, rs1=2, imm=8),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[3] == 0x123

    def test_byte_sign_extension(self):
        def setup(machine):
            machine.memory.write_u8(0x500000, 0x80)
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDBS, rd=1, rs1=2, imm=0),
            MicroOp(UOp.LDBU, rd=3, rs1=2, imm=0),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.regs[1] == 0xFFFFFF80
        assert machine.regs[3] == 0x80

    def test_freg_load_store(self):
        def setup(machine):
            machine.memory.write(0x500000, bytes(range(16)))
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.STF, rd=1, rs1=2, imm=16),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.memory.read(0x500010, 16) == bytes(range(16))


class TestControlFlow:
    def test_bc_loop(self):
        # r1 = 5; loop: r2 += r1; r1 -= 1 (.f); bne loop
        loop_body = [
            MicroOp(UOp.ADD2, rd=2, rs1=1),
            MicroOp(UOp.ADDI2, rd=1, imm=-1, setflags=True),
            MicroOp(UOp.BC, cond=Cond.NE, imm=0),  # patched below
            MicroOp(UOp.HALT),
        ]
        # offset: branch target is start of loop body relative to next uop
        body_len = loop_body[0].length + loop_body[1].length \
            + loop_body[2].length
        loop_body[2] = MicroOp(UOp.BC, cond=Cond.NE, imm=-body_len)
        machine, event = run_code(
            [MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=5)] + loop_body)
        assert event.kind == "halt"
        assert machine.regs[2] == 15  # 5+4+3+2+1

    def test_jmp_skips(self):
        machine, _ = run_code([
            MicroOp(UOp.JMP, imm=4),                        # skip next
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=99),    # skipped
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[1] == 0

    def test_jr_indirect(self):
        # jump over one 4-byte uop via register
        target = CODE + 16  # lui + ori + jr + skipped addi
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=1, imm=target >> 13),
            MicroOp(UOp.ORI, rd=1, rs1=1, imm=target & 0x1FFF),
            MicroOp(UOp.JR, rs1=1),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=1),  # skipped
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[2] == 0

    def test_vmexit_reports_target(self):
        machine, event = run_code([
            MicroOp(UOp.ADDI, rd=29, rs1=R_ZERO, imm=0x77),
            MicroOp(UOp.VMEXIT, rs1=29),
        ])
        assert event.kind == "vmexit"
        assert event.value == 0x77

    def test_vmcall_reports_service(self):
        machine, event = run_code([MicroOp(UOp.VMCALL, imm=3)])
        assert event.kind == "vmcall"
        assert event.value == 3
        assert event.resume_pc == CODE + 4

    def test_runaway_guard(self):
        memory = AddressSpace()
        memory.write(CODE, encode_stream([MicroOp(UOp.JMP, imm=-4)]))
        machine = FusibleMachine(memory)
        with pytest.raises(NativeMachineError):
            machine.run(CODE, max_uops=50)

    def test_bad_code_raises(self):
        memory = AddressSpace()
        machine = FusibleMachine(memory)
        memory.write(CODE, b"\xff\x7f\xff\xff")  # invalid long opcode
        with pytest.raises(NativeMachineError):
            machine.run(CODE)


class TestSpecial:
    def test_rdflg_wrflg_roundtrip(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.RDFLG, rd=5),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=1, setflags=True),
            MicroOp(UOp.WRFLG, rs1=5),
            MicroOp(UOp.HALT),
        ])
        assert machine.zf  # restored from the packed snapshot

    def test_xltx86_simple_instruction(self):
        from repro.isa.fusible.encoding import decode_stream

        def setup(machine):
            machine.memory.write(0x500000,
                                 b"\x01\xd8" + bytes(14))  # add eax, ebx
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.LDCSR, rd=4),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.csr_ilen == 2
        assert not machine.csr_cmplx and not machine.csr_cti
        uops = decode_stream(bytes(machine.fregs[3][:machine.csr_uop_bytes]))
        assert [uop.op for uop in uops] == [UOp.ADD2]
        # CSR packing: ilen in bits 0-4, byte count in bits 5-9
        assert machine.regs[4] & 0x1F == 2
        assert (machine.regs[4] >> 5) & 0x1F == 2

    def test_xltx86_complex_sets_flag(self):
        def setup(machine):
            machine.memory.write(0x500000, b"\xf7\xf3" + bytes(14))  # div
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.csr_cmplx

    def test_jcsrc_branches_on_complex(self):
        def setup(machine):
            machine.memory.write(0x500000, b"\xcd\x80" + bytes(14))  # int
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.JCSRC, imm=4),
            MicroOp(UOp.ADDI, rd=5, rs1=R_ZERO, imm=1),  # skipped
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.regs[5] == 0

    def test_execute_uops_rejects_branches(self):
        machine = FusibleMachine(AddressSpace())
        with pytest.raises(NativeMachineError):
            machine.execute_uops([MicroOp(UOp.JMP, imm=0)])

    def test_stats_counting(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=1, fused=True),
            MicroOp(UOp.ADD2, rd=2, rs1=1),
            MicroOp(UOp.HALT),
        ])
        assert machine.uops_executed == 3
        assert machine.fused_pairs_seen == 1
        assert machine.uop_bytes_fetched == 4 + 2 + 4


# -- run() against repeated step() -------------------------------------------
#
# ``run`` executes pre-decoded runs; ``step`` fetches, decodes and binds
# one micro-op at a time.  Whatever ``run`` does must be what stepping
# from the same start does: state, counters, exit event, error.

def stepped_run(machine, start_pc, max_uops):
    """``run`` as single-stepping defines it."""
    machine.pc = start_pc
    for _ in range(max_uops):
        event = machine.step()
        if event is not None:
            return event
    raise NativeBudgetExhausted(f"no VM exit within {max_uops} micro-ops")


def observe(machine, runner, start_pc, max_uops):
    """Everything an execution leaves behind."""
    try:
        outcome = runner(machine, start_pc, max_uops)
    except Exception as exc:   # compared, not handled
        outcome = (type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "regs": list(machine.regs),
        "fregs": [bytes(freg) for freg in machine.fregs],
        "flags": machine.flags_packed(),
        "csr": machine.csr,
        "pc": machine.pc,
        "uops_executed": machine.uops_executed,
        "uop_bytes_fetched": machine.uop_bytes_fetched,
        "fused_pairs_seen": machine.fused_pairs_seen,
        # every resident page: stores may land anywhere
        "memory": {index: bytes(page)
                   for index, page in machine.memory._pages.items()},
    }


def machine_pair(start, uops, regs=None, flags=0, data=b""):
    """Two machines over equal memories, set up alike."""
    memory = AddressSpace()
    memory.write(start, encode_stream(uops))
    memory.write(NATIVE_DATA_BASE, data)
    pair = []
    for space in (memory, memory.snapshot()):
        machine = FusibleMachine(space)
        if regs is not None:
            machine.regs[:] = regs
            machine.regs[R_ZERO] = 0
        machine.set_flags_packed(flags)
        pair.append(machine)
    return pair


def assert_run_matches_stepping(start, uops, budget, rounds=1, **setup):
    runner, stepper = machine_pair(start, uops, **setup)
    for _ in range(rounds):
        ran = observe(runner, FusibleMachine.run, start, budget)
        stepped = observe(stepper, stepped_run, start, budget)
        assert ran == stepped
    return runner, ran


class TestRunMatchesStepping:
    @given(program=native_programs())
    @settings(max_examples=300, deadline=None)
    def test_generated_programs(self, program):
        # the second round starts from runs the first one cached and
        # from whatever the program did to its own code
        assert_run_matches_stepping(
            program.start, program.uops, program.budget, rounds=2,
            regs=program.regs, flags=program.flags,
            data=bytes(range(64)))

    def test_fault_in_the_middle_of_a_run(self):
        machine, seen = assert_run_matches_stepping(CODE, [
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=5, fused=True),
            MicroOp(UOp.ADD2, rd=1, rs1=1),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=-2),
            MicroOp(UOp.LDW, rd=3, rs1=2, imm=0),     # 0xFFFFFFFE: faults
            MicroOp(UOp.ADDI, rd=4, rs1=R_ZERO, imm=1),
            MicroOp(UOp.HALT),
        ], budget=100)
        assert seen["outcome"][0] == "MemoryError_"
        assert seen["uops_executed"] == 4      # the faulting one counted
        assert seen["uop_bytes_fetched"] == 4 + 2 + 4 + 4
        assert seen["fused_pairs_seen"] == 1
        assert seen["pc"] == CODE + 14         # past the faulting LDW
        assert machine.regs[4] == 0

    @pytest.mark.parametrize("budget", range(0, 8))
    def test_budget_ends_inside_a_run(self, budget):
        body = [MicroOp(UOp.ADDI2, rd=1, imm=1) for _ in range(5)]
        machine, seen = assert_run_matches_stepping(
            CODE, body + [MicroOp(UOp.HALT)], budget=budget)
        if budget < 6:
            assert seen["outcome"][0] == "NativeBudgetExhausted"
            assert seen["uops_executed"] == budget
            assert machine.regs[1] == min(budget, 5)
        else:
            assert seen["outcome"] == ExitEvent(
                "halt", native_pc=CODE + 10, resume_pc=CODE + 14)

    def test_budget_error_is_a_native_machine_error(self):
        assert issubclass(NativeBudgetExhausted, NativeMachineError)

    @pytest.mark.parametrize("lead", [0, 1, 2])
    def test_micro_op_straddling_a_page(self, lead):
        # `lead` short micro-ops, then a 32-bit one whose second parcel
        # sits in the next page
        start = NATIVE_CODE_PAGE - 2 - 2 * lead
        uops = [MicroOp(UOp.ADDI2, rd=1, imm=1)] * lead + [
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=0x123),
            MicroOp(UOp.HALT)]
        machine, seen = assert_run_matches_stepping(start, uops, budget=50)
        assert seen["outcome"].kind == "halt"
        assert machine.regs[2] == 0x123
        # the second page belongs to the run too: rewriting the
        # immediate there must be seen
        machine.memory.write_u8(NATIVE_CODE_PAGE, 0x45)
        machine.run(start, max_uops=50)
        assert machine.regs[2] == 0x145

    def test_micro_op_in_the_last_byte_of_a_page(self):
        # an odd pc: three of the 32-bit micro-op's bytes are in the
        # next page (a run once decoded it from two and called it
        # truncated while stepping executed it)
        start = NATIVE_CODE_PAGE - 1
        machine, seen = assert_run_matches_stepping(start, [
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=0x123),
            MicroOp(UOp.HALT)], budget=50)
        assert seen["outcome"].kind == "halt"
        assert machine.regs[2] == 0x123

    @pytest.mark.parametrize("position", [0, 30, 62, 63, 64, 70])
    def test_run_cut_by_the_decode_window(self, position):
        # 80 32-bit micro-ops without a branch span more than one
        # window; a store is moved through every role in it (body,
        # last of the window, first of the next)
        uops = [MicroOp(UOp.ADDI, rd=1, rs1=1, imm=3) for _ in range(80)]
        uops[position] = MicroOp(UOp.STW, rd=1, rs1=8, imm=4)
        uops.append(MicroOp(UOp.VMEXIT, rs1=1))
        regs = [0] * 32
        regs[8] = NATIVE_DATA_BASE
        machine, seen = assert_run_matches_stepping(
            CODE, uops, budget=500, rounds=2, regs=regs)
        assert seen["outcome"].value == machine.regs[1]
        # second round: R1 carried 79 additions over from the first
        assert machine.memory.read_u32(NATIVE_DATA_BASE + 4) == \
            3 * (79 + position)

    def test_store_into_the_run_being_executed(self):
        # the STW replaces the micro-op right after it; the run that was
        # decoded with the old one must stop there
        new = int.from_bytes(encode_stream(
            [MicroOp(UOp.ADDI, rd=3, rs1=R_ZERO, imm=2)]), "little")
        uops = [
            MicroOp(UOp.LUI, rd=2, imm=new >> 13),
            MicroOp(UOp.ORI, rd=2, rs1=2, imm=new & 0x1FFF),
            MicroOp(UOp.STW, rd=2, rs1=9, imm=16),
            MicroOp(UOp.ADDI, rd=4, rs1=R_ZERO, imm=7),
            MicroOp(UOp.ADDI, rd=3, rs1=R_ZERO, imm=1),   # at CODE + 16
            MicroOp(UOp.HALT),
        ]
        regs = [0] * 32
        regs[9] = CODE
        machine, seen = assert_run_matches_stepping(
            CODE, uops, budget=50, rounds=2, regs=regs)
        assert seen["outcome"].kind == "halt"
        assert machine.regs[3] == 2 and machine.regs[4] == 7

    def test_bad_code_after_a_good_prefix(self):
        runner, stepper = machine_pair(CODE, [
            MicroOp(UOp.ADDI2, rd=1, imm=1), MicroOp(UOp.ADDI2, rd=1, imm=1)])
        for machine in (runner, stepper):
            machine.memory.write(CODE + 4, b"\xff\x7f\xff\xff")
        ran = observe(runner, FusibleMachine.run, CODE, 50)
        assert ran == observe(stepper, stepped_run, CODE, 50)
        assert ran["outcome"][0] == "NativeMachineError"
        assert ran["uops_executed"] == 2 and ran["pc"] == CODE + 4

    def test_every_micro_op_has_a_binder(self):
        from repro.isa.fusible.machine import _BINDERS
        assert set(_BINDERS) == set(UOp)

    def test_one_xlt_unit_per_machine(self):
        def setup(machine):
            machine.memory.write(0x500000, b"\x01\xd8" + bytes(14))
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.XLTX86, rd=4, rs1=1),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine._xlt_unit.invocations == 2


# -- the word table ------------------------------------------------------------
#
# A run looks each micro-op up by its bytes in the machine's word table:
# a word is decoded the first time any layer meets it, a non-control
# word is bound the first time the machine does.  ``step`` decodes and
# binds per site, so ``TestRunMatchesStepping`` above is the
# differential; these pin what is shared, what is not, and that
# rewritten code is looked up afresh.

def run_steps(machine, pc):
    body, tail = machine._runs[pc][:2]
    return body + (tail,)


@pytest.fixture
def decodes(monkeypatch):
    """The chunks ``decode_uop`` is called on where tables use it."""
    from repro.isa.fusible import encoding
    seen, real = [], encoding.decode_uop

    def counting(data, offset=0, x86_addr=None):
        seen.append(bytes(data[offset:offset + 4]))
        return real(data, offset, x86_addr)
    monkeypatch.setattr(encoding, "decode_uop", counting)
    return seen


class TestStepsSharedByWord:
    def test_equal_words_share_one_step_across_sites_and_runs(self):
        inc = MicroOp(UOp.ADDI2, rd=1, imm=1)
        add = MicroOp(UOp.ADDI, rd=2, rs1=2, imm=5)
        jmp, halt = MicroOp(UOp.JMP, imm=0), MicroOp(UOp.HALT)
        machine, event = run_code([inc, add, inc, jmp, add, inc, halt])
        assert event.kind == "halt"
        assert (machine.regs[1], machine.regs[2]) == (3, 10)
        first, second = run_steps(machine, CODE), \
            run_steps(machine, CODE + 12)
        assert first[0] is first[2] is second[1]
        assert first[1] is second[0]
        # one entry per distinct word; one closure per distinct
        # non-control word, none kept for the JMP and the HALT
        words = machine.words
        assert set(words) == {encode_stream([uop])
                              for uop in (inc, add, jmp, halt)}
        assert words[encode_stream([inc])].step is first[0]
        assert words[encode_stream([add])].step is first[1]
        assert words[encode_stream([jmp])].step is None
        assert words[encode_stream([halt])].step is None

    def test_control_micro_ops_are_bound_per_site(self, decodes):
        # the same BC word at two sites: each branches relative to its
        # own pc, so each site needs a step of its own -- decoded once
        skip = MicroOp(UOp.BC, cond=Cond.E, imm=2)
        inc = MicroOp(UOp.ADDI2, rd=1, imm=1)
        machine, event = run_code([
            MicroOp(UOp.SUBI, rd=R_ZERO, rs1=R_ZERO, imm=0, setflags=True),
            skip, inc, skip, inc, MicroOp(UOp.VMEXIT, rs1=1)])
        assert event == ExitEvent("vmexit", value=0, native_pc=CODE + 16,
                                  resume_pc=CODE + 20)
        assert run_steps(machine, CODE)[-1] is not \
            run_steps(machine, CODE + 10)[-1]
        assert machine.words[encode_stream([skip])].step is None
        assert decodes.count(encode_stream([skip])) == 1

    @pytest.mark.parametrize("new_imm", [1, 2])
    def test_a_store_rewrites_code_to_the_same_or_to_other_bytes(
            self, new_imm):
        # the STW overwrites the ADDI at CODE + 16 with ``addi r3, 1``
        # (the bytes already there) or ``addi r3, 2``; either way the
        # write drops the runs decoded from the page and what follows is
        # looked up, word by word, from the bytes memory holds now
        old = MicroOp(UOp.ADDI, rd=3, rs1=R_ZERO, imm=1)
        new = int.from_bytes(encode_stream(
            [MicroOp(UOp.ADDI, rd=3, rs1=R_ZERO, imm=new_imm)]), "little")
        uops = [
            MicroOp(UOp.LUI, rd=2, imm=new >> 13),
            MicroOp(UOp.ORI, rd=2, rs1=2, imm=new & 0x1FFF),
            MicroOp(UOp.STW, rd=2, rs1=9, imm=16),
            MicroOp(UOp.ADDI, rd=4, rs1=R_ZERO, imm=7),
            old,                                          # at CODE + 16
            MicroOp(UOp.HALT),
        ]
        regs = [0] * 32
        regs[9] = CODE
        machine, seen = assert_run_matches_stepping(
            CODE, uops, budget=50, rounds=2, regs=regs)
        assert seen["outcome"].kind == "halt"
        assert machine.regs[3] == new_imm and machine.regs[4] == 7
        # the run was cut at the store and decoded again behind it; the
        # old word was entered (with the first run) but, once rewritten,
        # it is the new word's step that sits at CODE + 16: identical
        # bytes share the entry, different bytes get one of their own
        words = machine.words
        assert encode_stream([old]) in words
        assert len(words) == len(uops) + (new_imm != 1)
        assert run_steps(machine, CODE + 12)[1] is \
            words[new.to_bytes(4, "little")].step

    def test_a_word_the_loader_screened_is_not_decoded_again(self, decodes):
        from repro.verify.rules import VerifyContext
        uops = [MicroOp(UOp.ADDI2, rd=1, imm=1),
                MicroOp(UOp.ADDI, rd=2, rs1=1, imm=5, x86_addr=0x40_0000),
                MicroOp(UOp.ADDI2, rd=1, imm=1), MicroOp(UOp.HALT)]
        machine = FusibleMachine(AddressSpace())
        code = encode_stream(uops)
        screen = VerifyContext.from_code(
            code, [uop.x86_addr for uop in uops], words=machine.words)
        assert screen.uops == uops
        assert len(decodes) == len(machine.words) == 3
        machine.memory.write(CODE, code)
        assert machine.run(CODE).kind == "halt"
        assert machine.regs[2] == 6
        assert len(decodes) == 3        # bound, not decoded again

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00\x41",
                                      b"\x00\x41\x00"])
    def test_a_word_cut_short_is_never_entered(self, tail):
        # an ADDI2, then a word (of the long-format NOP 00 41 00 00)
        # that the end of the address space cuts short; the end of a
        # page or of the decode window never does, a run reads two
        # bytes past them (``test_micro_op_straddling_a_page``)
        inc = MicroOp(UOp.ADDI2, rd=1, imm=1)
        start = (1 << 32) - 2 - len(tail)
        runner, stepper = machine_pair(start, [inc])
        for machine in (runner, stepper):
            machine.memory.write(start + 2, tail)
        ran = observe(runner, FusibleMachine.run, start, 50)
        assert ran == observe(stepper, stepped_run, start, 50)
        assert ran["outcome"][0] == "NativeMachineError"
        assert "truncated" in ran["outcome"][1]
        assert ran["uops_executed"] == 1 and ran["pc"] == start + 2
        assert set(runner.words) == {encode_stream([inc])}

    def test_undecodable_bytes_are_not_cached(self):
        table = WordTable()
        for chunk in (b"\xff\x7f\xff\xff", b"\x00\x3e", b"\x00", b"",
                      b"\x00\x41\x00"):
            with pytest.raises(UopDecodeError):
                table[chunk]
        assert not table

    @given(program=native_programs())
    @settings(max_examples=100, deadline=None)
    def test_the_table_holds_only_words_memory_held(self, program):
        runner, _ = machine_pair(program.start, program.uops,
                                 regs=program.regs, flags=program.flags,
                                 data=bytes(range(64)))
        observe(runner, FusibleMachine.run, program.start, program.budget)
        for chunk, word in runner.words.items():
            uop = decode_uop(chunk)
            assert word.uop == uop and uop.x86_addr is None
            assert len(chunk) == uop.length
            assert word.shape == (uop.length | 0x80 if uop.fused
                                  else uop.length)
            assert word.canonical == is_canonical(uop.op, chunk)
            assert word.step is None or not uop.is_branch
