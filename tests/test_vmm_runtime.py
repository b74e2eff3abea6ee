"""VMM runtime tests: dispatch, hot promotion, code-cache pressure,
profiling plumbing."""

import pytest

from repro.core import CoDesignedVM, interp_sbt, vm_be, vm_fe, vm_soft
from repro.hwassist import BranchBehaviorBuffer
from repro.isa.fusible import MicroOp, R_ZERO, UOp, encode_uop
from repro.isa.x86lite import assemble, Reg, X86State
from repro.memory import AddressSpace, load_image
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.obs.ledger import RuntimePhaseCosts, runtime_phase_costs
from repro.translator import TranslationDirectory
from repro.vmm import (
    NativeExecutionFault,
    SoftwareProfiler,
    UopBudgetExhausted,
    VMRuntime,
)
from repro.vmm.profiling import EdgeProfile
from repro.workloads.programs import PROGRAMS

LOOP = """
start:
    mov ecx, 60
loop:
    add edi, ecx
    dec ecx
    jnz loop
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

ENDLESS = """
start:
    mov ecx, 0
loop:
    add eax, 1
    jmp loop
"""


def make_runtime(source, hot_threshold=5, **kwargs):
    image = assemble(source)
    state = X86State(memory=AddressSpace())
    state.regs[Reg.ESP] = DEFAULT_STACK_TOP
    state.eip = load_image(image, state.memory)
    runtime = VMRuntime(
        state, vm_soft().with_(hot_threshold=hot_threshold, **kwargs))
    return runtime, image.labels


class TestDispatch:
    def test_program_runs_to_halt(self):
        runtime, _labels = make_runtime(LOOP)
        runtime.run()
        assert runtime.state.halted
        assert runtime.state.regs[Reg.EDI] == sum(range(1, 61))

    def test_loop_block_promoted_to_sbt(self):
        runtime, labels = make_runtime(LOOP, hot_threshold=5)
        runtime.run()
        assert runtime.directory.has_sbt(labels["loop"])
        assert runtime.profile_calls >= 1

    def test_no_promotion_below_threshold(self):
        runtime, labels = make_runtime(LOOP, hot_threshold=1000)
        runtime.run()
        assert not runtime.directory.has_sbt(labels["loop"])
        assert runtime.sbt.superblocks_translated == 0

    def test_chaining_can_be_disabled(self):
        runtime, _labels = make_runtime(LOOP, enable_chaining=False)
        runtime.run()
        assert runtime.directory.chains_made == 0
        # block exits return to the VMM until the SBT loop takes over
        assert runtime.vm_exits >= 5

    def test_chaining_reduces_vm_exits(self):
        chained, _ = make_runtime(LOOP)
        chained.run()
        unchained, _ = make_runtime(LOOP, enable_chaining=False)
        unchained.run()
        assert chained.vm_exits < unchained.vm_exits

    def test_stats_snapshot(self):
        runtime, _labels = make_runtime(LOOP)
        runtime.run()
        stats = runtime.stats()
        assert stats["blocks_translated"] == \
            runtime.bbt.blocks_translated
        assert stats["uops_executed"] > 0
        assert stats["dispatches"] >= 1

    def test_edges_recorded_for_superblock_formation(self):
        runtime, labels = make_runtime(LOOP, hot_threshold=5)
        runtime.run()
        successors = runtime.profiler.edges.successors(labels["loop"])
        assert labels["loop"] in successors


class TestCodeCachePressure:
    def test_tiny_bbt_cache_forces_flushes(self):
        image = assemble(LOOP)
        state = X86State(memory=AddressSpace())
        state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        state.eip = load_image(image, state.memory)
        directory = TranslationDirectory(
            state.memory, bbt_capacity=160, sbt_capacity=1 << 20,
            sbt_base=0x2000_0000 + 4096)
        runtime = VMRuntime(state, vm_soft().with_(hot_threshold=1000),
                            directory=directory)
        runtime.run()
        assert state.halted
        assert directory.bbt_cache.flushes >= 1
        # flushed blocks were re-translated on re-entry
        assert runtime.bbt.blocks_translated > len(
            set(t.entry for t in directory.bbt_cache.translations))

    def test_tiny_sbt_cache_forces_retranslation(self):
        source = """
        start:
            mov ecx, 40
        loopa:
            add eax, 1
            dec ecx
            jnz loopa
            mov ecx, 40
        loopb:
            add ebx, 2
            dec ecx
            jnz loopb
            mov ecx, 40
        loopc:
            add edx, 3
            dec ecx
            jnz loopc
            mov eax, 0
            mov ebx, 0
            int 0x80
        """
        image = assemble(source)
        state = X86State(memory=AddressSpace())
        state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        state.eip = load_image(image, state.memory)
        directory = TranslationDirectory(
            state.memory, bbt_capacity=1 << 20,
            sbt_base=0x2010_0000, sbt_capacity=48)
        runtime = VMRuntime(state, vm_soft().with_(hot_threshold=5),
                            directory=directory)
        runtime.run()
        assert state.halted
        assert directory.sbt_cache.flushes >= 1
        assert runtime.stats()["sbt_flushes"] >= 1

    def test_a_translation_larger_than_the_cache_flushes_nothing(self):
        # matmul's 264-byte superblock cannot fit a 256-byte SBT cache
        # even empty: it fails into the quarantine and leaves the two
        # live superblocks; the one flush makes room for a 216-byte one
        # (flushing for the 264-byte one too lost 49 translations)
        vm = CoDesignedVM(vm_soft(), hot_threshold=20)
        vm.load(assemble(PROGRAMS["matmul"]))
        directory = TranslationDirectory(
            vm.state.memory, bbt_capacity=512, sbt_base=0x2000_0000 + 512,
            sbt_capacity=256)
        vm.runtime = VMRuntime(vm.state, vm.config, directory=directory)
        report = vm.run()
        assert report.output == [7840]
        stats = vm.stats()
        assert (stats["sbt_flushes"], stats["translation_faults"],
                stats["translations_lost_in_flushes"]) == (1, 1, 21)

    def test_an_empty_cache_is_not_flushed(self):
        # the LOOP superblock is larger than the whole SBT cache
        state = X86State(memory=AddressSpace())
        state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        state.eip = load_image(assemble(LOOP), state.memory)
        directory = TranslationDirectory(
            state.memory, bbt_capacity=1 << 20, sbt_base=0x2010_0000,
            sbt_capacity=16)
        runtime = VMRuntime(state, vm_soft().with_(hot_threshold=5),
                            directory=directory)
        runtime.run()
        assert state.halted
        assert runtime.stats()["sbt_flushes"] == 0
        assert runtime.translation_faults >= 1


class TestProfileService:
    def test_profile_fires_at_threshold(self):
        runtime, labels = make_runtime(LOOP, hot_threshold=7)
        runtime.run()
        assert runtime.profile_calls >= 1
        assert runtime.profiler.is_hot(labels["loop"])

    def test_counter_disabled_after_promotion(self):
        runtime, labels = make_runtime(LOOP, hot_threshold=5)
        runtime.run()
        translation = runtime.directory._bbt_lookup[labels["loop"]]
        counter = runtime.state.memory.read_u32(translation.counter_addr)
        assert counter > 0x1000_0000  # parked at the disabled value

    def test_interp_one_counts(self):
        runtime, _labels = make_runtime(LOOP)
        runtime.run()
        assert runtime.interp_one_calls >= 1  # the INT 0x80 at the end


class TestBuiltFromConfig:
    def test_vm_soft_charges_the_default_weights(self):
        # a bare ``VMRuntime(state, vm_soft())`` clocks a run as one
        # built with no costs at all did
        assert runtime_phase_costs(vm_soft().costs) == RuntimePhaseCosts()

    @pytest.mark.parametrize("config, detector, xlt", [
        (vm_soft(), SoftwareProfiler, False),
        (vm_be(), SoftwareProfiler, True),
        (vm_fe(), BranchBehaviorBuffer, False),
        (interp_sbt(), SoftwareProfiler, False),
    ], ids=["soft", "be", "fe", "interp"])
    def test_the_config_picks_profiler_and_xltx86(self, config, detector,
                                                   xlt):
        runtime = VMRuntime(X86State(memory=AddressSpace()), config)
        assert type(runtime.profiler) is detector
        assert (runtime.bbt.xlt_unit is not None) == xlt
        assert runtime.bbt.embed_profiling == config.uses_bbt
        assert runtime.hot_threshold == config.hot_threshold \
            == runtime.profiler.hot_threshold


class TestErrors:
    def test_bad_initial_emulation_rejected(self):
        state = X86State(memory=AddressSpace())
        with pytest.raises(ValueError):
            VMRuntime(state, vm_soft().with_(initial_emulation="bogus"))

    def test_uop_budget_enforced(self):
        runtime, _labels = make_runtime("start: jmp start")
        from repro.vmm import VMRuntimeError
        with pytest.raises(VMRuntimeError):
            runtime.run(max_uops=1000)

    @pytest.mark.parametrize("kwargs", [
        # hot_threshold=5: the loop is promoted and the superblock
        # closes on itself; the PROFILE service resumes into it
        dict(),
        # never hot: the BBT block is chained to itself
        dict(hot_threshold=10 ** 6),
        # the interpretive run loop, once the superblock exists
        dict(initial_emulation="interp"),
    ], ids=["profile-resume", "translated", "interpretive"])
    def test_endless_native_loop_exhausts_the_uop_budget(self, kwargs):
        """Once the loop never leaves native code the budget runs out
        inside the machine, not at a dispatch: still a budget error."""
        runtime, _labels = make_runtime(ENDLESS, **kwargs)
        with pytest.raises(UopBudgetExhausted) as excinfo:
            runtime.run(max_uops=20000)
        assert "budget" in str(excinfo.value)
        # the machine stopped exactly at the budget, mid-run or not
        assert runtime.total_uops_executed + \
            runtime.machine.uops_executed == 20000

    def test_bad_native_code_is_an_execution_fault(self):
        runtime, _labels = make_runtime(LOOP)
        runtime.run()
        translation = runtime.directory.lookup(runtime.state.eip) or \
            runtime.directory.bbt_cache.translations[0]
        runtime.memory.write(translation.native_addr, b"\xff\x7f\xff\xff")
        runtime.state.halted = False
        runtime.state.eip = translation.entry
        with pytest.raises(NativeExecutionFault):
            runtime.run()


class TestEdgeProfile:
    def test_biased_successor(self):
        edges = EdgeProfile()
        edges.record(1, 2, 90)
        edges.record(1, 3, 10)
        assert edges.biased_successor(1) == 2

    def test_no_bias_returns_none(self):
        edges = EdgeProfile()
        edges.record(1, 2, 50)
        edges.record(1, 3, 50)
        assert edges.biased_successor(1, bias=0.6) is None

    def test_unknown_source(self):
        assert EdgeProfile().biased_successor(42) is None

    def test_successors_accumulate(self):
        edges = EdgeProfile()
        edges.record(1, 2)
        edges.record(1, 2)
        assert edges.successors(1) == {2: 2}


class TestSoftwareProfiler:
    def test_hot_watermark(self):
        profiler = SoftwareProfiler(hot_threshold=3)
        profiler.record_entry(0x400000, count=2)
        assert profiler.take_hot() is None
        profiler.record_entry(0x400000)
        assert profiler.take_hot() == 0x400000
        assert profiler.take_hot() is None  # reported once

    def test_forget(self):
        profiler = SoftwareProfiler(hot_threshold=2)
        profiler.record_entry(0x1000, 2)
        profiler.take_hot()
        profiler.forget(0x1000)
        assert not profiler.is_hot(0x1000)
        profiler.record_entry(0x1000, 2)
        assert profiler.take_hot() == 0x1000  # can re-report after forget

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SoftwareProfiler(hot_threshold=0)


class TestVMFacade:
    def test_requires_load(self):
        vm = CoDesignedVM(vm_soft())
        with pytest.raises(RuntimeError):
            vm.run()

    def test_report_summary_renders(self):
        vm = CoDesignedVM(vm_soft(), hot_threshold=5)
        vm.load(assemble(LOOP))
        report = vm.run()
        text = report.summary()
        assert "VM.soft" in text
        assert "fused pair fraction" in text


class TestGuestStoreIntoItsOwnTranslation:
    """Nothing stops architected code from addressing the concealed
    code cache.  A guest store that rewrites a translation the machine
    has already executed must take effect: the machine executes what
    memory holds, not what it once decoded."""

    SOURCE = """
start:
    mov esi, 3
    jmp again
again:
    mov edi, 7
    dec esi
    jz done
    cmp esi, 1
    jne again
    mov dword [{address}], {word}
    jmp again
done:
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

    def boot(self, address, word):
        runtime, labels = make_runtime(
            self.SOURCE.format(address=address, word=word),
            hot_threshold=10 ** 6)
        runtime.run()
        return runtime, runtime.directory.lookup(labels["again"])

    def test_next_pass_executes_the_stored_bytes(self):
        # a first boot (storing into plain data) tells where `mov edi, 7`
        # lives in the translation of `again`; the layout of a boot is
        # deterministic, so the second boot can aim at it
        runtime, translation = self.boot(0x600000, 0)
        assert runtime.state.regs[Reg.EDI] == 7
        load_seven = MicroOp(UOp.ADDI, rd=int(Reg.EDI), rs1=R_ZERO, imm=7)
        index = [str(uop) for uop in translation.uops].index(str(load_seven))
        target = translation.native_addr + sum(
            uop.length for uop in translation.uops[:index])
        word = int.from_bytes(encode_uop(
            MicroOp(UOp.ADDI, rd=int(Reg.EDI), rs1=R_ZERO, imm=9)), "little")

        runtime, again = self.boot(target, word)
        assert again.native_addr == translation.native_addr
        # passes one and two ran the original (and left it pre-decoded);
        # the store came before pass three
        assert runtime.state.regs[Reg.EDI] == 9
        assert runtime.state.regs[Reg.ESI] == 0
