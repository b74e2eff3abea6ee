"""Redundant-load elimination tests: rewrites, safety, and semantic
preservation under randomized memory traffic."""

from hypothesis import given, settings, strategies as st

from repro.core import CoDesignedVM, ref_superscalar, vm_soft
from repro.isa.fusible import FusibleMachine, MicroOp, UOp
from repro.isa.fusible.registers import R_ZERO
from repro.isa.x86lite import assemble
from repro.memory import AddressSpace
from repro.translator import redundancy
from tests.sbt_oracle import on_uops


def uop(op, **kwargs):
    return MicroOp(op, **kwargs)


def eliminate_redundant_loads(uops):
    return on_uops(redundancy.eliminate_redundant_loads, uops)


class TestRewrites:
    def test_repeated_load_becomes_move(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 1
        assert out[1].op is UOp.MOV2
        assert out[1].rd == 9 and out[1].rs1 == 8

    def test_store_to_load_forwarding(self):
        uops = [uop(UOp.STW, rd=8, rs1=3, imm=4),
                uop(UOp.LDW, rd=9, rs1=3, imm=4)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 1
        assert out[1].op is UOp.MOV2 and out[1].rs1 == 8

    def test_identical_reload_becomes_nop(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.LDW, rd=8, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert out[1].op is UOp.NOP2

    def test_high_register_uses_addi_form(self):
        uops = [uop(UOp.LDW, rd=20, rs1=3, imm=0),
                uop(UOp.LDW, rd=21, rs1=3, imm=0)]
        out, _stats = eliminate_redundant_loads(uops)
        assert out[1].op is UOp.ADDI and out[1].imm == 0


class TestSafety:
    def test_any_store_clobbers_other_locations(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.STW, rd=5, rs1=4, imm=0),   # may alias [r3]
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0
        assert out[2].op is UOp.LDW

    def test_base_redefinition_clobbers(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.ADDI, rd=3, rs1=3, imm=4),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_value_redefinition_clobbers(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.ADDI, rd=8, rs1=R_ZERO, imm=7),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_load_into_own_base_not_remembered(self):
        uops = [uop(UOp.LDW, rd=3, rs1=3, imm=0),   # rd == base
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_no_reuse_across_branches(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.JMP, imm=4),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_no_reuse_across_vmcall(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.VMCALL, imm=0),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        _out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_subword_store_clobbers(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.STB, rd=5, rs1=6, imm=0),
                uop(UOp.LDW, rd=9, rs1=3, imm=0)]
        _out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0

    def test_different_displacements_not_confused(self):
        uops = [uop(UOp.LDW, rd=8, rs1=3, imm=0),
                uop(UOp.LDW, rd=9, rs1=3, imm=4)]
        _out, stats = eliminate_redundant_loads(uops)
        assert stats.loads_eliminated == 0


# -- semantic preservation under randomized memory traffic ------------------------

_regs = st.integers(0, 10)
_slots = st.integers(0, 3)


@st.composite
def memory_traffic(draw):
    count = draw(st.integers(2, 16))
    uops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["ldw", "stw", "alu"]))
        if kind == "ldw":
            uops.append(MicroOp(UOp.LDW, rd=draw(_regs), rs1=11,
                                imm=draw(_slots) * 4))
        elif kind == "stw":
            uops.append(MicroOp(UOp.STW, rd=draw(_regs), rs1=11,
                                imm=draw(_slots) * 4))
        else:
            uops.append(MicroOp(UOp.ADDI, rd=draw(_regs),
                                rs1=draw(_regs),
                                imm=draw(st.integers(-50, 50))))
    return uops


def run_uops(uops, seed_regs, seed_words):
    machine = FusibleMachine(AddressSpace())
    machine.regs[:11] = seed_regs
    machine.regs[11] = 0x600000
    for slot, word in enumerate(seed_words):
        machine.memory.write_u32(0x600000 + slot * 4, word)
    machine.execute_uops(uops)
    return (list(machine.regs),
            machine.memory.read(0x600000, 16))


class TestSemanticPreservation:
    @given(uops=memory_traffic(),
           seed_regs=st.lists(st.integers(0, 0xFFFFFFFF), min_size=11,
                              max_size=11),
           seed_words=st.lists(st.integers(0, 0xFFFFFFFF), min_size=4,
                               max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_elimination_preserves_state(self, uops, seed_regs,
                                         seed_words):
        optimized, _stats = eliminate_redundant_loads(uops)
        plain = run_uops(uops, seed_regs, seed_words)
        opt = run_uops(optimized, seed_regs, seed_words)
        assert plain == opt


class TestEndToEnd:
    def test_vm_results_unchanged_with_elimination(self):
        source = """
        start:
            mov esi, 0x600000
            mov dword [esi], 5
            mov ecx, 40
        loop:
            add [esi], ecx       ; RMW: store then ...
            mov eax, [esi]       ; ... reload -> forwarded
            add ebx, eax
            dec ecx
            jnz loop
            mov eax, 1
            int 0x80
            mov eax, 0
            mov ebx, 0
            int 0x80
        """
        image = assemble(source)
        outputs = []
        for factory in (ref_superscalar, vm_soft):
            vm = CoDesignedVM(factory(), hot_threshold=5)
            vm.load(image)
            outputs.append(vm.run().output)
        assert outputs[0] == outputs[1]

    def test_elimination_fires_on_real_code(self):
        source = """
        start:
            mov esi, 0x600000
            mov ecx, 40
        loop:
            add [esi], ecx
            mov eax, [esi]
            add ebx, eax
            dec ecx
            jnz loop
            mov eax, 0
            mov ebx, 0
            int 0x80
        """
        vm = CoDesignedVM(vm_soft(), hot_threshold=5)
        vm.load(assemble(source))
        vm.run()
        assert vm.runtime.sbt.loads_eliminated >= 1
