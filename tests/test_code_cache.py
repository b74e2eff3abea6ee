"""Code cache, lookup table and chaining tests."""

import pytest

from repro.isa.fusible import (
    FusibleMachine,
    MicroOp,
    NativeBudgetExhausted,
    UOp,
    decode_uop,
    encode_stream,
)
from repro.isa.fusible.registers import R_EXIT_TARGET
from repro.memory import AddressSpace
from repro.translator import (
    CodeCacheFull,
    ExitStub,
    Translation,
    TranslationDirectory,
)
from repro.translator.emit import direct_exit_stub


def make_directory(bbt_capacity=4096, sbt_capacity=4096):
    memory = AddressSpace()
    return TranslationDirectory(memory,
                                bbt_base=0x2000_0000,
                                bbt_capacity=bbt_capacity,
                                sbt_base=0x2000_0000 + bbt_capacity,
                                sbt_capacity=sbt_capacity), memory


def install_simple(directory, entry, kind="bbt", x86_target=0x400100):
    """Install a minimal translation: a direct exit stub."""
    uops = direct_exit_stub(x86_target, entry)
    translation = Translation(entry=entry, kind=kind, x86_addrs=[entry],
                              uop_count=len(uops),
                              origins=[[entry, len(uops)]])
    directory.install(encode_stream(uops), translation,
                      exits=[(0, "jump", x86_target)])
    return translation


class TestCodeCache:
    def test_install_and_lookup(self):
        directory, _memory = make_directory()
        translation = install_simple(directory, 0x400000)
        assert directory.lookup(0x400000) is translation
        assert directory.has_translation(0x400000)

    def test_lookup_miss_counted(self):
        directory, _memory = make_directory()
        assert directory.lookup(0x400000) is None
        assert directory.lookup_misses == 1

    def test_sbt_preferred_over_bbt(self):
        directory, _memory = make_directory()
        bbt = install_simple(directory, 0x400000, "bbt")
        sbt = install_simple(directory, 0x400000, "sbt")
        assert directory.lookup(0x400000) is sbt
        assert bbt is not sbt

    def test_capacity_enforced(self):
        directory, _memory = make_directory(bbt_capacity=24)
        install_simple(directory, 0x400000)  # 12 bytes
        install_simple(directory, 0x400010)  # 12 bytes - exactly full
        with pytest.raises(CodeCacheFull):
            install_simple(directory, 0x400020)

    def test_flush_clears_lookup_and_space(self):
        directory, _memory = make_directory(bbt_capacity=24)
        install_simple(directory, 0x400000)
        install_simple(directory, 0x400010)
        evicted = directory.flush("bbt")
        assert len(evicted) == 2
        assert not directory.has_translation(0x400000)
        assert directory.bbt_cache.free_bytes == 24
        install_simple(directory, 0x400020)  # fits again

    def test_used_bytes_accounting(self):
        directory, _memory = make_directory()
        install_simple(directory, 0x400000)
        assert directory.bbt_cache.used_bytes == 12
        assert directory.bbt_cache.bytes_installed_total == 12


class TestChaining:
    def test_chain_patches_stub_with_jmp(self):
        directory, memory = make_directory()
        source = install_simple(directory, 0x400000, x86_target=0x400100)
        target = install_simple(directory, 0x400100)
        stub = source.exits[0]
        assert directory.request_chain(stub)
        assert stub.chained_to == target.native_addr
        patched = decode_uop(memory.read(stub.stub_addr, 4))
        assert patched.op is UOp.JMP
        # the JMP must land exactly on the target translation
        landing = stub.stub_addr + 4 + patched.imm
        assert landing == target.native_addr

    def test_chain_deferred_until_target_exists(self):
        directory, memory = make_directory()
        source = install_simple(directory, 0x400000, x86_target=0x400100)
        stub = source.exits[0]
        assert not directory.request_chain(stub)  # queued
        assert stub.chained_to is None
        target = install_simple(directory, 0x400100)
        assert stub.chained_to == target.native_addr  # auto-resolved

    def test_indirect_stub_never_chains(self):
        directory, _memory = make_directory()
        source = install_simple(directory, 0x400000)
        stub = ExitStub(stub_addr=source.native_addr + 8, kind="indirect",
                        x86_target=None)
        assert not directory.request_chain(stub)
        assert stub.chained_to is None

    def test_flush_unchains_incoming_stubs(self):
        directory, memory = make_directory()
        source = install_simple(directory, 0x400000, "bbt",
                                x86_target=0x400100)
        install_simple(directory, 0x400100, "sbt")
        stub = source.exits[0]
        directory.request_chain(stub)
        assert stub.chained_to is not None
        directory.flush("sbt")
        assert stub.chained_to is None
        restored = decode_uop(memory.read(stub.stub_addr, 4))
        assert restored.op is UOp.LUI
        assert restored.rd == R_EXIT_TARGET

    def test_flush_unchains_cross_cache_both_directions(self):
        """Regression: stubs in the *other* cache chained into a flushed
        region must be unlinked, in both directions."""
        directory, memory = make_directory()
        # bbt stub chained into the sbt cache
        bbt_source = install_simple(directory, 0x400000, "bbt",
                                    x86_target=0x400100)
        install_simple(directory, 0x400100, "sbt")
        # sbt stub chained into the bbt cache
        sbt_source = install_simple(directory, 0x400200, "sbt",
                                    x86_target=0x400300)
        bbt_target = install_simple(directory, 0x400300, "bbt")
        directory.request_chain(bbt_source.exits[0])
        directory.request_chain(sbt_source.exits[0])
        assert bbt_source.exits[0].chained_to is not None
        assert sbt_source.exits[0].chained_to is not None

        directory.flush("bbt")
        # the surviving sbt stub no longer jumps into freed bbt space
        stub = sbt_source.exits[0]
        assert stub.chained_to is None
        restored = decode_uop(memory.read(stub.stub_addr, 4))
        assert restored.op is UOp.LUI
        assert restored.rd == R_EXIT_TARGET
        # re-translating the target lets the stub re-chain correctly
        bbt_target = install_simple(directory, 0x400300, "bbt")
        assert directory.request_chain(stub)
        patched = decode_uop(memory.read(stub.stub_addr, 4))
        assert stub.stub_addr + 4 + patched.imm == bbt_target.native_addr

    def test_flush_keeps_other_cache_chains_outside_region(self):
        """Chains between survivors are left intact by a flush."""
        directory, _memory = make_directory()
        sbt_source = install_simple(directory, 0x400000, "sbt",
                                    x86_target=0x400100)
        sbt_target = install_simple(directory, 0x400100, "sbt")
        directory.request_chain(sbt_source.exits[0])
        directory.flush("bbt")  # unrelated cache
        assert sbt_source.exits[0].chained_to == sbt_target.native_addr

    def test_flush_drops_pending_chains_from_dead_stubs(self):
        """A pending chain whose stub died in the flush must never fire:
        patching freed code-cache space would corrupt whatever is
        installed there next."""
        directory, _memory = make_directory()
        source = install_simple(directory, 0x400000, "bbt",
                                x86_target=0x400100)
        stub = source.exits[0]
        assert not directory.request_chain(stub)  # target absent: queued
        directory.flush("bbt")
        # installing the target later must not patch the dead stub
        install_simple(directory, 0x400100, "sbt")
        assert stub.chained_to is None

    def test_flush_keeps_pending_chains_from_survivors(self):
        directory, _memory = make_directory()
        source = install_simple(directory, 0x400000, "sbt",
                                x86_target=0x400100)
        stub = source.exits[0]
        assert not directory.request_chain(stub)
        directory.flush("bbt")  # stub lives in sbt: request survives
        target = install_simple(directory, 0x400100, "bbt")
        assert stub.chained_to == target.native_addr

    def test_find_stub(self):
        directory, _memory = make_directory()
        source = install_simple(directory, 0x400000)
        stub, owner = directory.find_stub(source.exits[0].stub_addr)
        assert owner is source

    def test_chain_counter(self):
        directory, _memory = make_directory()
        source = install_simple(directory, 0x400000, x86_target=0x400100)
        install_simple(directory, 0x400100)
        directory.request_chain(source.exits[0])
        assert directory.chains_made == 1


class TestRedirection:
    def test_sbt_install_redirects_bbt_entry(self):
        directory, memory = make_directory()
        bbt = install_simple(directory, 0x400000, "bbt")
        original = memory.read(bbt.native_addr, 4)
        sbt = install_simple(directory, 0x400000, "sbt")
        patched = decode_uop(memory.read(bbt.native_addr, 4))
        assert patched.op is UOp.JMP
        assert bbt.native_addr + 4 + patched.imm == sbt.native_addr
        assert directory.redirects_made == 1
        # flushing the SBT cache restores the BBT entry
        directory.flush("sbt")
        assert memory.read(bbt.native_addr, 4) == original

    def test_no_redirect_without_bbt_copy(self):
        directory, _memory = make_directory()
        install_simple(directory, 0x400000, "sbt")
        assert directory.redirects_made == 0

    def test_bbt_flush_drops_redirect_records(self):
        directory, _memory = make_directory()
        install_simple(directory, 0x400000, "bbt")
        install_simple(directory, 0x400000, "sbt")
        directory.flush("bbt")
        assert not directory._redirects


class TestSideTable:
    def test_side_table_resolution(self):
        directory, _memory = make_directory()
        native = directory.bbt_cache.reserve()
        uops = [MicroOp(UOp.VMCALL, imm=0, x86_addr=0x400123)]
        translation = Translation(entry=0x400120, kind="bbt",
                                  origins=[[0x400123, 1]])
        directory.install(encode_stream(uops), translation,
                          side=[(0, 0x400123)])
        x86_addr, owner = directory.resolve_side_table(native)
        assert x86_addr == 0x400123
        assert owner is translation

    def test_side_table_cleared_on_flush(self):
        directory, _memory = make_directory()
        native = directory.bbt_cache.reserve()
        uops = [MicroOp(UOp.VMCALL, imm=0, x86_addr=0x400123)]
        translation = Translation(entry=0x400120, kind="bbt",
                                  origins=[[0x400123, 1]])
        directory.install(encode_stream(uops), translation,
                          side=[(0, 0x400123)])
        directory.flush("bbt")
        assert directory.resolve_side_table(native) is None


class TestExecutionFollowsMemory:
    """The native machine keeps runs pre-decoded from code-cache bytes;
    every way the directory (or anything else) rewrites those bytes must
    reach a machine that has already executed them.

    ``install_simple`` translations are one exit stub each, so the x86
    target a run leaves through names the code that was executed.
    """

    A, B, C = 0x400000, 0x400100, 0x400200

    def setup_pair(self):
        """A (exits to B's entry) and B (exits to C), both executed once."""
        directory, memory = make_directory()
        first = install_simple(directory, self.A, x86_target=self.B)
        second = install_simple(directory, self.B, x86_target=self.C)
        machine = FusibleMachine(memory)
        assert self.leaves_through(machine, first) == self.B
        assert self.leaves_through(machine, second) == self.C
        return directory, memory, machine, first, second

    @staticmethod
    def leaves_through(machine, translation):
        event = machine.run(translation.native_addr, max_uops=16)
        assert event.kind == "vmexit"
        return event.value

    def test_patch_then_unpatch(self):
        directory, _memory, machine, first, second = self.setup_pair()
        stub = first.exits[0]
        directory._patch(stub, second.native_addr)
        assert self.leaves_through(machine, first) == self.C   # chained
        directory._unpatch(stub)
        assert self.leaves_through(machine, first) == self.B

    def test_sbt_redirect_and_sbt_flush(self):
        directory, _memory, machine, first, _second = self.setup_pair()
        install_simple(directory, self.A, "sbt", x86_target=0x400300)
        assert self.leaves_through(machine, first) == 0x400300
        directory.flush("sbt")          # restores the BBT entry word
        assert self.leaves_through(machine, first) == self.B

    def test_bbt_flush_leaves_nothing_to_execute(self):
        directory, _memory, machine, first, _second = self.setup_pair()
        directory.flush("bbt")
        before = machine.uops_executed
        with pytest.raises(NativeBudgetExhausted):      # zeros are NOP2s
            machine.run(first.native_addr, max_uops=16)
        assert machine.uops_executed == before + 16

    def test_evict_unchains_into_the_victim(self):
        directory, _memory, machine, first, second = self.setup_pair()
        directory.request_chain(first.exits[0])
        assert self.leaves_through(machine, first) == self.C
        directory.evict(second)
        assert self.leaves_through(machine, first) == self.B

    def test_evict_superblock_restores_the_bbt_entry(self):
        directory, _memory, machine, first, _second = self.setup_pair()
        superblock = install_simple(directory, self.A, "sbt",
                                    x86_target=0x400300)
        assert self.leaves_through(machine, first) == 0x400300
        directory.evict(superblock)
        assert not directory.is_redirected(first.native_addr)
        assert self.leaves_through(machine, first) == self.B

    def test_evict_redirected_bbt_copy_drops_the_redirect(self):
        directory, _memory, machine, first, _second = self.setup_pair()
        superblock = install_simple(directory, self.A, "sbt",
                                    x86_target=0x400300)
        directory.evict(first)
        assert not directory._redirects
        assert directory.lookup(self.A) is superblock
        assert self.leaves_through(machine, superblock) == 0x400300

    def test_byte_poked_into_the_code_page(self):
        # what the code-cache-corruption fault class does: the ORI's
        # low immediate byte is the fifth-from-last byte of the stub
        _directory, memory, machine, first, _second = self.setup_pair()
        memory.write_u8(first.native_addr + 6, 0x44)
        assert self.leaves_through(machine, first) == self.B + 0x44

    def test_reinstall_over_flushed_space(self):
        directory, _memory, machine, first, _second = self.setup_pair()
        directory.flush("bbt")
        again = install_simple(directory, self.C, x86_target=0x400300)
        assert again.native_addr == first.native_addr
        assert self.leaves_through(machine, again) == 0x400300
