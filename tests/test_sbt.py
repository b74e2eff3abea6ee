"""SBT translation tests: layout, side exits, loop-back, optimization."""

from repro.isa.fusible import UOp, decode_stream
from repro.isa.x86lite import assemble
from repro.memory import AddressSpace, load_image
from repro.translator import (
    SuperblockTranslator,
    TranslationDirectory,
    form_superblock,
    invert_cond,
)
from repro.vmm.profiling import EdgeProfile
from repro.isa.x86lite.registers import Cond
from tests.sbt_oracle import scan_block


def setup(source):
    image = assemble(source)
    memory = AddressSpace()
    load_image(image, memory)
    directory = TranslationDirectory(memory)
    sbt = SuperblockTranslator(directory, memory)
    return sbt, directory, memory, image.labels, image.entry


LOOP = """
start:
    mov ecx, 100
loop:
    add eax, ecx
    dec ecx
    jnz loop
    ret
"""


def loop_edges(memory, labels):
    edges = EdgeProfile()
    edges.record(labels["loop"], labels["loop"], 99)
    edges.record(labels["loop"], scan_block(memory,
                                            labels["loop"])[-1].next_addr, 1)
    return edges


class TestInvertCond:
    def test_inversion_pairs(self):
        assert invert_cond(Cond.E) is Cond.NE
        assert invert_cond(Cond.NE) is Cond.E
        assert invert_cond(Cond.L) is Cond.NL
        assert invert_cond(Cond.NBE) is Cond.BE

    def test_involution(self):
        for cond in Cond:
            assert invert_cond(invert_cond(cond)) is cond


class TestLoopTranslation:
    def test_loop_ends_with_backward_jmp(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        jmps = [u for u in translation.uops if u.op is UOp.JMP]
        assert len(jmps) == 1
        assert jmps[0].imm < 0  # backward

    def test_loop_side_exit_inverted(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        # followed direction is taken (loop): the BC tests the INVERTED
        # condition (Z) to leave the loop
        bcs = [u for u in translation.uops if u.op is UOp.BC]
        assert len(bcs) == 1
        assert bcs[0].cond is Cond.E

    def test_side_exit_stub_targets_fallthrough(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        exit_addr = scan_block(memory, labels["loop"])[-1].next_addr
        assert [stub.x86_target for stub in translation.exits] == \
            [exit_addr]

    def test_installed_bytes_decode_back(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        raw = memory.read(translation.native_addr, translation.native_len)
        decoded = decode_stream(raw)
        assert len(decoded) == translation.uop_count

    def test_bc_displacement_lands_on_stub(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        offset = 0
        for uop in translation.uops:
            if uop.op is UOp.BC:
                landing = translation.native_addr + offset + uop.length \
                    + uop.imm
                assert landing == translation.exits[0].stub_addr
            offset += uop.length

    def test_optimization_happened(self):
        sbt, _dir, memory, labels, _entry = setup(LOOP)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        assert translation.fused_pairs >= 1

    def test_dead_flags_eliminated_in_translation(self):
        # the first ADD's flags are fully shadowed by the second ADD
        # (DEC preserves CF, so only a full writer in between kills them)
        source = """
        start:
            mov ecx, 100
        loop:
            add eax, ecx
            add ebx, eax
            dec ecx
            jnz loop
            ret
        """
        sbt, _dir, memory, labels, _entry = setup(source)
        translation = sbt.translate(labels["loop"],
                                    loop_edges(memory, labels))
        assert sbt.flags_eliminated >= 1
        add_eax = [u for u in translation.uops
                   if u.op is UOp.ADD2 and u.rd == 0]
        assert all(not u.setflags for u in add_eax)

    def test_fusion_can_be_disabled(self):
        image_src = LOOP
        image = assemble(image_src)
        memory = AddressSpace()
        load_image(image, memory)
        directory = TranslationDirectory(memory)
        sbt = SuperblockTranslator(directory, memory, enable_fusion=False)
        translation = sbt.translate(image.labels["loop"],
                                    loop_edges(memory, image.labels))
        assert translation.fused_pairs == 0


class TestTailShapes:
    def test_fallthrough_tail_stub_first(self):
        # unfollowed JCC: fall-through stub must directly follow the body
        source = """
        check:
            cmp eax, 0
            je somewhere
            ret
        somewhere:
            ret
        """
        sbt, _dir, memory, labels, _entry = setup(source)
        translation = sbt.translate(labels["check"], EdgeProfile())
        kinds = [stub.kind for stub in translation.exits]
        assert kinds[0] == "fallthrough"
        assert "taken" in kinds

    def test_indirect_tail(self):
        sbt, _dir, _memory, labels, entry = setup("start:\nret")
        translation = sbt.translate(entry, EdgeProfile())
        assert translation.uops[-1].op is UOp.VMEXIT
        assert not translation.exits  # no patchable stubs

    def test_complex_tail_vmcall(self):
        sbt, _dir, _memory, _labels, entry = setup(
            "start:\nmov eax, 0\nint 0x80")
        translation = sbt.translate(entry, EdgeProfile())
        assert translation.uops[-1].op is UOp.VMCALL
        assert translation.side_table

    def test_call_tail_exits_to_callee(self):
        source = """
        caller:
            mov eax, 1
            call fn
            ret
        fn:
            ret
        """
        sbt, _dir, _memory, labels, _entry = setup(source)
        translation = sbt.translate(labels["caller"], EdgeProfile())
        assert translation.exits[0].x86_target == labels["fn"]
        # the return-address push survived in the body
        assert any(u.op is UOp.STW for u in translation.uops)

    def test_multi_block_trace_straightens_jumps(self):
        source = """
        a:
            mov eax, 1
            jmp b
        pad: .zero 32
        b:
            add eax, 2
            jmp c
        pad2: .zero 32
        c:
            ret
        """
        sbt, _dir, _memory, labels, _entry = setup(source)
        translation = sbt.translate(labels["a"], EdgeProfile())
        assert translation.x86_addrs == [labels["a"], labels["b"],
                                         labels["c"]]
        # straightened: no JMP micro-ops in the body
        assert not any(u.op is UOp.JMP for u in translation.uops)

    def test_lookup_registered_for_head_only(self):
        source = """
        a:
            mov eax, 1
            jmp b
        pad: .zero 32
        b:
            ret
        """
        sbt, directory, _memory, labels, _entry = setup(source)
        sbt.translate(labels["a"], EdgeProfile())
        assert directory.has_sbt(labels["a"])
        assert not directory.has_sbt(labels["b"])
