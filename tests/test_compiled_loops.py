"""Compiled loops against the bound steps they stand in for.

``FusibleMachine`` compiles a superblock that closes on its head into
one host function; the bound-step runs stay the oracle.  Every test runs
the same code from the same state on two machines, one that knows the
head (here it compiles the loop at its second entry) and one that does
not, and compares everything an execution leaves behind: registers,
flags, memory, ``pc``, the three counters and the exit event or error.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core import CoDesignedVM, vm_soft
from repro.isa.fusible import FusibleMachine, MicroOp, UOp, encode_stream
from repro.isa.fusible import machine as native
from repro.isa.fusible.machine import _COND_TEXT, _COND_TRUTH
from repro.isa.fusible.registers import R_ZERO
from repro.isa.x86lite import assemble
from repro.isa.x86lite.registers import Cond
from repro.memory import AddressSpace
from repro.persist import TranslationRepository
from tests.strategies import (
    LOOP_CODE,
    LOOP_COUNTER,
    NATIVE_DATA_BASE,
    looping_superblocks,
)

# the benchmark's program generator (``perf/`` is not a package)
_spec = importlib.util.spec_from_file_location(
    "perf_gen", Path(__file__).resolve().parent.parent / "perf" / "gen.py")
gen = sys.modules["perf_gen"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

#: the trigger the machine ships with
TRIGGER = {"LOOP_ENTRIES": native.LOOP_ENTRIES,
           "LOOP_FIXED": native.LOOP_FIXED}


@pytest.fixture(autouse=True)
def compile_at_the_second_entry(monkeypatch):
    # the first entry sizes the loop, the second compiles it
    monkeypatch.setattr(native, "LOOP_ENTRIES", 1)
    monkeypatch.setattr(native, "LOOP_FIXED", 0)


@pytest.fixture
def compiles(monkeypatch):
    """The head of every loop a machine compiles, in order."""
    heads = []
    compile_loop = FusibleMachine._compile_loop

    def counting(machine, items):
        heads.append(items[0][1])
        return compile_loop(machine, items)
    monkeypatch.setattr(FusibleMachine, "_compile_loop", counting)
    return heads


def observe(machine, start, budget):
    try:
        outcome = machine.run(start, max_uops=budget)
    except Exception as exc:   # compared, not handled
        outcome = (type(exc).__name__, str(exc))
    return {
        "outcome": outcome,
        "regs": list(machine.regs),
        "flags": machine.flags_packed(),
        "pc": machine.pc,
        "uops_executed": machine.uops_executed,
        "uop_bytes_fetched": machine.uop_bytes_fetched,
        "fused_pairs_seen": machine.fused_pairs_seen,
        "memory": {index: bytes(page)
                   for index, page in machine.memory._pages.items()},
    }


def machine_pair(uops, regs, flags=0):
    """A machine that compiles the loop at LOOP_CODE and one that runs
    it on bound steps, over equal memories, set up alike."""
    memory = AddressSpace()
    memory.write(LOOP_CODE, encode_stream(uops))
    memory.write(NATIVE_DATA_BASE, bytes(range(64)))
    pair = []
    for space in (memory, memory.snapshot()):
        machine = FusibleMachine(space)
        machine.regs[:] = regs
        machine.regs[R_ZERO] = 0
        machine.set_flags_packed(flags)
        pair.append(machine)
    pair[0].loop_heads[LOOP_CODE] = 0
    return pair


def assert_same(pair, budget, rounds=3):
    """Run both machines ``rounds`` times from the head; each round
    starts from what the last one left."""
    compiled, stepped = pair
    for _ in range(rounds):
        seen = observe(compiled, LOOP_CODE, budget)
        assert seen == observe(stepped, LOOP_CODE, budget)
    return seen


def registers(**values):
    regs = [0] * 32
    regs[8] = NATIVE_DATA_BASE
    for name, value in values.items():
        regs[int(name[1:])] = value
    return regs


#: a counted loop of 9 micro-ops and its two exit stubs: a load, a
#: flagged add, a store, an R_ZERO operand, a fused pair, two side exits
#: (the second counts R12 down)
COUNTED = [
    MicroOp(UOp.LDBU, rd=3, rs1=8, imm=4),
    MicroOp(UOp.ADD, rd=1, rs1=1, rs2=3, setflags=True),
    MicroOp(UOp.STW, rd=1, rs1=8, imm=32),
    MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=7, fused=True),
    MicroOp(UOp.ADD2, rd=4, rs1=2),
    MicroOp(UOp.BC, cond=Cond.O, imm=12),
    MicroOp(UOp.DECF, rd=LOOP_COUNTER, rs1=LOOP_COUNTER, setflags=True),
    MicroOp(UOp.BC, cond=Cond.E, imm=8),
    MicroOp(UOp.JMP, imm=-34),
    MicroOp(UOp.VMEXIT, rs1=1),
    MicroOp(UOp.VMEXIT, rs1=2),
]
COUNTED_SIZE = 9     # micro-ops from the head through the JMP


class TestAgainstBoundSteps:
    @given(program=looping_superblocks())
    @settings(max_examples=150, deadline=None)
    def test_generated_superblocks(self, program):
        assert_same(machine_pair(program.uops, program.regs, program.flags),
                    program.budget)

    def test_a_counted_loop_runs_compiled(self, compiles):
        pair = machine_pair(COUNTED, registers(r12=30))
        seen = assert_same(pair, 10_000, rounds=1)
        assert seen["outcome"].kind == "vmexit"
        assert compiles == [LOOP_CODE]
        # the first round ran on bound steps, the next 28 compiled
        assert pair[0].loop_iterations == 28
        # 29 rounds, 8 micro-ops of the 30th and the VMEXIT of its stub
        assert seen["uops_executed"] == 30 * COUNTED_SIZE

    @pytest.mark.parametrize("budget", range(4 * COUNTED_SIZE + 2))
    def test_the_budget_ends_after_any_micro_op(self, budget):
        assert_same(machine_pair(COUNTED, registers(r12=30)), budget)

    def test_a_load_that_faults_mid_iteration(self, compiles):
        # R10 walks up to the end of the address space two bytes a
        # round: the load at 0xFFFFFFFE crosses it
        uops = [
            MicroOp(UOp.ADDI, rd=5, rs1=5, imm=1),
            MicroOp(UOp.LDW, rd=3, rs1=10, imm=0),
            MicroOp(UOp.ADDI, rd=10, rs1=10, imm=2),
            MicroOp(UOp.JMP, imm=-16),
        ]
        pair = machine_pair(uops, registers(r10=0xFFFFFFF0))
        seen = assert_same(pair, 1000, rounds=1)
        assert seen["outcome"][0] == "MemoryError_"
        assert compiles == [LOOP_CODE]
        assert seen["pc"] == LOOP_CODE + 8      # past the faulting load
        assert seen["uops_executed"] == 7 * 4 + 2

    def test_a_store_into_the_loops_own_page(self, compiles):
        # R9 steps a page a round; in the sixth it points past the
        # loop's code in its own page: the store drops the compiled
        # loop, which stops after it, and the head is sized and
        # compiled anew
        uops = [
            MicroOp(UOp.ADDI, rd=1, rs1=1, imm=3),
            MicroOp(UOp.STW, rd=1, rs1=9, imm=0),
            MicroOp(UOp.ADD, rd=9, rs1=9, rs2=7),
            MicroOp(UOp.DECF, rd=LOOP_COUNTER, rs1=LOOP_COUNTER,
                    setflags=True),
            MicroOp(UOp.BC, cond=Cond.E, imm=4),
            MicroOp(UOp.JMP, imm=-24),
            MicroOp(UOp.HALT),
        ]
        pair = machine_pair(uops, registers(
            r7=0x1000, r9=LOOP_CODE + 32 - 5 * 0x1000, r12=12))
        seen = assert_same(pair, 10_000, rounds=1)
        assert seen["outcome"].kind == "halt"
        assert compiles == [LOOP_CODE, LOOP_CODE]

    def test_a_store_that_rewrites_the_loop(self, compiles):
        # in the fourth round the store replaces the ADDI two micro-ops
        # on with one adding 5: the compiled loop stops after the store
        # and what runs next, and is compiled next, is the new code
        new = encode_stream([MicroOp(UOp.ADDI, rd=4, rs1=4, imm=5)])
        uops = [
            MicroOp(UOp.STW, rd=6, rs1=9, imm=8),
            MicroOp(UOp.ADD, rd=9, rs1=9, rs2=7),
            MicroOp(UOp.ADDI, rd=4, rs1=4, imm=1),
            MicroOp(UOp.DECF, rd=LOOP_COUNTER, rs1=LOOP_COUNTER,
                    setflags=True),
            MicroOp(UOp.BC, cond=Cond.E, imm=4),
            MicroOp(UOp.JMP, imm=-24),
            MicroOp(UOp.HALT),
        ]
        pair = machine_pair(uops, registers(
            r6=int.from_bytes(new, "little"), r7=0x1000,
            r9=LOOP_CODE - 3 * 0x1000, r12=9))
        assert_same(pair, 10_000, rounds=1)
        assert pair[0].regs[4] == 3 + 6 * 5
        assert compiles == [LOOP_CODE, LOOP_CODE]

    def test_a_chain_patch_into_the_page_recompiles(self, compiles):
        # what a chain does to an exit stub: its VMEXIT becomes a JMP
        # (here to the HALT after the stubs)
        halt = LOOP_CODE + sum(uop.length for uop in COUNTED)
        uops = COUNTED + [MicroOp(UOp.HALT)]
        pair = machine_pair(uops, registers(r12=5))
        assert assert_same(pair, 10_000, rounds=1)["outcome"].kind == \
            "vmexit"
        assert compiles == [LOOP_CODE]
        stub = LOOP_CODE + sum(uop.length for uop in COUNTED[:-1])
        chain = encode_stream([MicroOp(UOp.JMP, imm=halt - (stub + 4))])
        for machine in pair:
            machine.memory.write(stub, chain)
            machine.regs[LOOP_COUNTER] = 20
        assert LOOP_CODE not in pair[0]._loops
        seen = assert_same(pair, 10_000, rounds=1)
        assert seen["outcome"].kind == "halt"
        assert compiles == [LOOP_CODE, LOOP_CODE]


class TestWhatCompiles:
    def test_a_head_whose_code_is_no_loop_is_dropped(self, compiles):
        uops = [MicroOp(UOp.ADDI, rd=1, rs1=1, imm=1),
                MicroOp(UOp.VMEXIT, rs1=1)]
        pair = machine_pair(uops, registers())
        assert_same(pair, 100, rounds=3)
        assert compiles == [] and pair[0].loop_heads == {}

    def test_conditions_read_the_flags_as_branches_do(self):
        for cond in Cond:
            for flags in range(16):
                cf, zf, sf, of = (bool(flags & bit) for bit in (1, 2, 4, 8))
                assert eval(_COND_TEXT[cond]) == _COND_TRUTH[cond][flags]


class TestWarmLoaded:
    def test_a_warm_vm_compiles_the_loop_it_loaded(self, tmp_path,
                                                   monkeypatch, compiles):
        # hot_loop, seed 0, published cold at hot threshold 50: the warm
        # VM loads the looping superblock, and compiles it under the
        # trigger the machine ships with
        for name, value in TRIGGER.items():
            monkeypatch.setattr(native, name, value)
        image = assemble(gen.generate_source(gen.HOT_LOOP, 0))
        repository = TranslationRepository(tmp_path)

        def boot(warm: bool):
            vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            vm.load(image)
            if warm:
                vm.warm_start(repository)
            report = vm.run()
            state = vm.state
            return vm, report, (report.output, state.exit_code,
                                list(state.regs), state.cf, state.zf,
                                state.sf, state.of)

        cold, _report, cold_state = boot(False)
        cold.save_translations(repository)
        del compiles[:]
        warm, report, warm_state = boot(True)
        loaded = [translation.native_addr for translation
                  in warm.runtime.directory.sbt_cache.translations]
        assert report.persist_loaded and len(loaded) > 1
        # the loop runs in one loaded superblock that closes on its head
        assert len(compiles) == 1 and compiles[0] in loaded
        assert warm.runtime.machine.loop_iterations > 400
        assert warm_state == cold_state
        # the same warm boot on bound steps: same cycles, same micro-ops
        monkeypatch.setattr(native, "LOOP_ENTRIES", 1 << 30)
        _vm, stepped, stepped_state = boot(True)
        assert stepped_state == warm_state
        assert (report.total_cycles, report.uops_executed) == \
            (stepped.total_cycles, stepped.uops_executed)


def test_what_each_boot_of_the_loop_table_compiles(monkeypatch):
    # ``tools/callcounts.py loops``: under the shipped trigger only
    # hot_loop's loop compiles, once, cold and warm; no seed program's
    # loop is long-lived enough, and the wide image (wide_cold,
    # served_boot) and the herd's quicksort compile nothing
    for name, value in TRIGGER.items():
        monkeypatch.setattr(native, name, value)
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "tools"))
    import callcounts
    table, texts = callcounts.loop_table()
    compiled = {name: row["loops"] for name, row in table.items()
                if row["loops"]}
    assert compiled == {"hot_loop": 1, "hot_loop --warm": 1}
    assert all(row["recompiles"] == 0 for row in table.values())
    assert len(texts) == 3 and all(text.startswith("def loop(")
                                   for text in texts)
