"""Basic block translator tests: block scanning, layout, linkage."""

from repro.hwassist import XLTx86Unit
from repro.isa.fusible import UOp, VMService
from repro.isa.x86lite import assemble
from repro.memory import AddressSpace, load_image
from repro.translator import BasicBlockTranslator, TranslationDirectory
from repro.translator.emit import (
    EXIT_STUB_BYTES,
    PROFILE_PROLOGUE_BYTES,
    profile_prologue,
)
from tests.sbt_oracle import scan_block


def make_bbt(source, embed_profiling=False, **kwargs):
    image = assemble(source)
    memory = AddressSpace()
    entry = load_image(image, memory)
    directory = TranslationDirectory(memory)
    bbt = BasicBlockTranslator(directory, memory,
                               embed_profiling=embed_profiling,
                               hot_threshold=10, **kwargs)
    bbt.labels = image.labels
    return bbt, directory, memory, entry


class TestScanBlock:
    def test_block_ends_at_cti(self):
        _bbt, _dir, memory, entry = make_bbt(
            "start: mov eax, 1\nmov ebx, 2\njmp start")
        instrs = scan_block(memory, entry)
        assert len(instrs) == 3
        assert instrs[-1].is_control_transfer

    def test_block_ends_at_complex(self):
        _bbt, _dir, memory, entry = make_bbt(
            "mov eax, 1\nmov ebx, 0\ndiv ebx\nhlt")
        instrs = scan_block(memory, entry)
        assert len(instrs) == 3
        assert instrs[-1].is_complex

    def test_block_size_limit(self):
        source = "\n".join(["nop"] * 100 + ["hlt"])
        _bbt, _dir, memory, entry = make_bbt(source)
        instrs = scan_block(memory, entry, max_instrs=16)
        assert len(instrs) == 16


class TestTranslationShape:
    def test_direct_jmp_one_stub(self):
        bbt, _dir, _memory, entry = make_bbt(
            "start: mov eax, 1\njmp start")
        translation = bbt.translate(entry)
        assert len(translation.exits) == 1
        assert translation.exits[0].kind == "jump"
        assert translation.exits[0].x86_target == entry

    def test_jcc_two_stubs(self):
        bbt, _dir, _memory, entry = make_bbt(
            "top: dec eax\njnz top\nhlt")
        translation = bbt.translate(entry)
        kinds = sorted(stub.kind for stub in translation.exits)
        assert kinds == ["fallthrough", "taken"]
        taken = next(s for s in translation.exits if s.kind == "taken")
        assert taken.x86_target == entry

    def test_jcc_stub_distance_matches_bc(self):
        bbt, _dir, _memory, entry = make_bbt(
            "top: dec eax\njnz top\nhlt")
        translation = bbt.translate(entry)
        bc = next(u for u in translation.uops if u.op is UOp.BC)
        assert bc.imm == EXIT_STUB_BYTES

    def test_ret_indirect_exit(self):
        bbt, _dir, _memory, entry = make_bbt("ret")
        translation = bbt.translate(entry)
        assert translation.exits[0].kind == "indirect"
        assert translation.exits[0].x86_target is None
        assert translation.uops[-1].op is UOp.VMEXIT

    def test_complex_instruction_vmcall(self):
        bbt, _dir, _memory, entry = make_bbt("mov eax, 0\nint 0x80")
        translation = bbt.translate(entry)
        assert translation.uops[-1].op is UOp.VMCALL
        assert translation.uops[-1].imm == int(VMService.INTERP_ONE)
        # side table maps the VMCALL to the INT instruction
        (x86_addr,) = set(translation.side_table.values())
        assert x86_addr == entry + 5  # after "mov eax, 0"

    def test_instr_and_uop_counts(self):
        bbt, _dir, _memory, entry = make_bbt("mov eax, 1\nadd eax, 2\nret")
        translation = bbt.translate(entry)
        assert translation.instr_count == 3
        assert translation.uop_count == len(translation.uops)

    def test_lookup_registered(self):
        bbt, directory, _memory, entry = make_bbt("ret")
        translation = bbt.translate(entry)
        assert directory.lookup(entry) is translation


class TestProfilingPrologue:
    def test_prologue_present_when_enabled(self):
        bbt, _dir, _memory, entry = make_bbt("ret", embed_profiling=True)
        translation = bbt.translate(entry)
        assert translation.counter_addr is not None
        assert translation.uops[0].op is UOp.RDFLG
        vmcalls = [u for u in translation.uops
                   if u.op is UOp.VMCALL and
                   u.imm == int(VMService.PROFILE)]
        assert len(vmcalls) == 1

    def test_prologue_absent_when_disabled(self):
        bbt, _dir, _memory, entry = make_bbt("ret", embed_profiling=False)
        translation = bbt.translate(entry)
        assert translation.counter_addr is None
        assert all(u.imm != int(VMService.PROFILE)
                   for u in translation.uops if u.op is UOp.VMCALL)

    def test_counter_initialized_to_threshold(self):
        bbt, _dir, memory, entry = make_bbt("ret", embed_profiling=True)
        translation = bbt.translate(entry)
        assert memory.read_u32(translation.counter_addr) == 10

    def test_reset_counter(self):
        bbt, _dir, memory, entry = make_bbt("ret", embed_profiling=True)
        translation = bbt.translate(entry)
        memory.write_u32(translation.counter_addr, 0)
        bbt.reset_counter(translation)
        assert memory.read_u32(translation.counter_addr) == 10
        bbt.reset_counter(translation, 12345)
        assert memory.read_u32(translation.counter_addr) == 12345

    def test_prologue_byte_size_constant(self):
        uops = profile_prologue(0x28000000, 0x400000)
        assert sum(u.length for u in uops) == PROFILE_PROLOGUE_BYTES


class TestHardwareAssistedPath:
    def test_xlt_unit_produces_identical_translation(self):
        source = "mov eax, 1\nadd eax, 2\nlea ebx, [eax+eax*2]\nret"
        bbt_sw, _d1, _m1, entry1 = make_bbt(source)
        bbt_hw, _d2, _m2, entry2 = make_bbt(source)
        bbt_hw.xlt_unit = XLTx86Unit()
        sw = bbt_sw.translate(entry1)
        hw = bbt_hw.translate(entry2)
        assert [str(u) for u in sw.uops] == [str(u) for u in hw.uops]
        # the body instrs (not the RET), none punted
        assert bbt_hw.xlt_unit.invocations == 3
        assert bbt_hw.xlt_unit.complex_punts == 0

    def test_hw_punt_falls_back_to_software(self):
        # a large-displacement RMW cracks to >16 micro-op bytes
        source = "add [ebx+ecx*4+0x12345678], eax\nret"
        bbt, _dir, _memory, entry = make_bbt(source)
        bbt.xlt_unit = XLTx86Unit()
        translation = bbt.translate(entry)
        assert bbt.xlt_unit.complex_punts == 1
        assert translation.uop_count > 4


class TestStatistics:
    def test_counters_accumulate(self):
        bbt, _dir, _memory, entry = make_bbt(
            "start: mov eax, 1\njmp second\nsecond: ret")
        bbt.translate(entry)
        bbt.translate(bbt.labels["second"])
        assert bbt.blocks_translated == 2
        assert bbt.instrs_translated == 3
        assert bbt.uops_emitted > 0
