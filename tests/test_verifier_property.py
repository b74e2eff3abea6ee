"""Property tests: translator outputs always satisfy the verifier.

Random x86lite basic blocks go through the real BBT (via memory and the
translation directory), through crack+fuse directly, and through a whole
VM run with hot loops; in every case the emitted fusible code must pass
the full rule-pack and fusion accounting must stay within bounds.
"""

from hypothesis import given, settings

from repro.core import CoDesignedVM, vm_soft
from repro.isa.fusible.encoding import decode_stream, encode_stream
from repro.isa.x86lite import assemble
from repro.isa.x86lite.encoder import encode
from repro.isa.x86lite.instruction import Instruction
from repro.isa.x86lite.opcodes import Op
from repro.memory import AddressSpace
from repro.translator import crack, fusion, is_crackable
from repro.translator.bbt import BasicBlockTranslator
from repro.translator.code_cache import TranslationDirectory
from repro.verify import verify_directory, verify_translation
from tests.sbt_oracle import on_uops
from tests.strategies import basic_blocks, loop_programs
from tests.test_verifier_rules import verify_stream

ENTRY = 0x40_0000


def _write_block(memory: AddressSpace, block) -> None:
    addr = ENTRY
    for instr in block:
        data = encode(instr, addr=addr)
        memory.write(addr, data)
        addr += len(data)
    memory.write(addr, encode(Instruction(Op.RET), addr=addr))


class TestTranslatorOutputsVerify:
    @given(block=basic_blocks())
    @settings(max_examples=40, deadline=None)
    def test_bbt_translations_pass_the_rule_pack(self, block):
        memory = AddressSpace()
        _write_block(memory, block)
        directory = TranslationDirectory(memory)
        bbt = BasicBlockTranslator(directory, memory, hot_threshold=50)
        translation = bbt.translate(ENTRY)
        report = verify_translation(translation, memory=memory,
                                    directory=directory)
        assert report.ok, report.format()

    @given(block=basic_blocks())
    @settings(max_examples=40, deadline=None)
    def test_fusion_passes_rule_pack_and_fraction_is_bounded(self, block):
        body = []
        for instr in block:
            if is_crackable(instr):
                body.extend(crack(instr).uops)
        fused, stats = on_uops(fusion.fuse_microops, body)
        assert 0.0 <= stats.fused_fraction <= 1.0
        # the bytes say everything the fused micro-ops do, and pass
        assert decode_stream(encode_stream(fused),
                             [uop.x86_addr for uop in fused]) == fused
        report = verify_stream(fused)
        assert report.ok, report.format()

    @given(source=loop_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_hot_loops_verify_clean_end_to_end(self, source):
        vm = CoDesignedVM(vm_soft(), hot_threshold=2)
        vm.load(assemble(source))
        report = vm.run()
        assert report.superblocks_translated >= 1
        directory = vm.runtime.directory
        swept = verify_directory(directory)
        assert swept.ok, swept.format()
        for cache in (directory.bbt_cache, directory.sbt_cache):
            for translation in cache.translations:
                assert 0.0 <= translation.fused_fraction <= 1.0
