"""Warm/cold restart tests — the functional analogue of scenarios 2/3."""

import pytest

from repro.core import CoDesignedVM, ref_superscalar, vm_soft
from repro.isa.x86lite import assemble
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.workloads.programs import PROGRAMS

PROGRAM = PROGRAMS["fibonacci"]


def make_vm():
    vm = CoDesignedVM(vm_soft(), hot_threshold=8)
    vm.load(assemble(PROGRAM))
    return vm


class TestWarmRestart:
    def test_same_results_on_second_run(self):
        vm = make_vm()
        first = vm.run()
        vm.restart(warm=True)
        second = vm.run()
        assert second.output == first.output
        assert second.exit_code == first.exit_code

    def test_no_retranslation_when_warm(self):
        vm = make_vm()
        vm.run()
        translated_once = vm.runtime.bbt.blocks_translated
        optimized_once = vm.runtime.sbt.superblocks_translated
        vm.restart(warm=True)
        vm.run()
        assert vm.runtime.bbt.blocks_translated == translated_once
        assert vm.runtime.sbt.superblocks_translated == optimized_once

    def test_warm_run_uses_existing_chains(self):
        vm = make_vm()
        vm.run()
        chains = vm.runtime.directory.chains_made
        exits_first = vm.runtime.vm_exits
        vm.restart(warm=True)
        vm.run()
        # second run re-enters chained/optimized code: fewer exits added
        assert vm.runtime.vm_exits - exits_first <= exits_first
        assert vm.runtime.directory.chains_made == chains

    def test_data_segments_restored(self):
        source = """
        start:
            mov eax, [counter]
            inc eax
            mov [counter], eax
            mov ebx, eax
            mov eax, 1
            int 0x80
            mov eax, 0
            mov ebx, 0
            int 0x80
        counter: .dd 100
        """
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(source))
        first = vm.run()
        vm.restart(warm=True)
        second = vm.run()
        assert first.output == second.output == [101]


class TestColdRestart:
    def test_cold_restart_retranslates(self):
        vm = make_vm()
        vm.run()
        translated_once = vm.runtime.bbt.blocks_translated
        vm.restart(warm=False)
        vm.run()
        # a fresh runtime starts its own translation counters
        assert vm.runtime.bbt.blocks_translated == translated_once

    def test_reference_restart(self):
        vm = CoDesignedVM(ref_superscalar())
        vm.load(assemble(PROGRAM))
        first = vm.run()
        vm.restart()
        second = vm.run()
        assert first.output == second.output

    def test_restart_requires_load(self):
        vm = CoDesignedVM(vm_soft())
        with pytest.raises(RuntimeError):
            vm.restart()


class TestRestartEqualsFreshBoot:
    # the heap page is in no segment of the image: only a restart that
    # drops guest memory starts the second run from zeros again
    HEAP_COUNTER = """
    start:
        mov edi, 0x600000
        mov eax, [edi]
        add eax, 1
        mov [edi], eax
        mov ebx, eax
        mov eax, 0
        int 0x80
    """

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("config", [vm_soft, ref_superscalar])
    def test_memory_outside_the_image_is_reset(self, config, warm):
        vm = CoDesignedVM(config(), hot_threshold=8)
        vm.load(assemble(self.HEAP_COUNTER))
        assert vm.run().exit_code == 1
        stack = DEFAULT_STACK_TOP - 64
        vm.state.memory.write_u32(stack, 0xDEAD)
        vm.restart(warm=warm)
        assert vm.state.memory.read_u32(stack) == 0
        assert vm.run().exit_code == 1     # 2 when the heap page survived
        assert vm.state.memory.read_u32(0x600000) == 1
