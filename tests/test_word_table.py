"""The per-VM word table (``repro.isa.fusible.encoding``: ``Word``,
``WordTable``; ``FusibleMachine.words``).

Loader, verifier and machine resolve every micro-op through one table
keyed by the word's bytes, so each distinct word is decoded -- and, by
the verifier, classified -- once per VM.  These tests hold

* every entry field to its direct derivation from ``decode_uop(word)``
  (which stays the one definition in ``verify/dataflow.py``), by search;
* a context's verdicts to the per-micro-op derivations the rules made
  before the table existed;
* a word with a don't-care bit set to its entry of its own, which no
  screen reads;
* the table to its contract: an entry is only ever ``decode_uop``'s
  reading of its own key, nothing cut short or undecodable is entered,
  tables are per VM, and a code-cache flush drops them;
* a warm boot to exact counts: a load of derived blocks decodes and
  classifies nothing, and the run decodes each distinct word it meets
  once (the CI guard: a count, not the clock).

The machine's side (steps shared by word, rewritten code looked up
afresh, the end of the address space) is in
``test_fusible_machine.py::TestStepsSharedByWord``; the fused dataflow
transfer against its product oracle is in
``test_verifier_rules.py::TestOneWalk``.
"""

import copy
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.isa.fusible.encoding as encoding_module
import repro.isa.fusible.machine as machine_module
import repro.verify.dataflow as dataflow_module
import repro.verify.rules as rules_module
from repro.core.config import ref_superscalar, vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.encoding import (
    UopDecodeError,
    UopEncodeError,
    Word,
    WordTable,
    decode_stream,
    decode_uop,
    encode_stream,
    encode_uop,
    is_canonical,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp, VMService
from repro.isa.fusible.registers import R_EXIT_TARGET
from repro.isa.x86lite import Reg, X86State, assemble
from repro.memory import AddressSpace, load_image
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.persist import (
    TranslationRepository,
    WarmStartLoader,
    capture_translations,
)
from repro.persist.format import encode_record, parse_record
from repro.translator import TranslationDirectory
from repro.verify import sanitizer
from repro.verify.dataflow import (
    VMM_MASK,
    definitely_defined,
    flag_provenance,
    regs_in,
    regs_read,
    regs_written,
    word_facts,
)
from repro.verify.rules import VerifyContext
from repro.verify.verifier import run_rules
from repro.vmm import VMRuntime
from tests.stored import damage_stored, stored_texts, with_stored_code
from tests.strategies import uops as any_uop
from tests.test_install_screen import counted
from tests.test_persist import LOOP
from tests.test_verifier_rules import cfg_of, verify_stream


def assert_entry_is_the_direct_derivation(chunk, word):
    """Every field of ``word`` against what the layers derived from
    ``decode_uop(chunk)`` per occurrence before the table."""
    uop = decode_uop(chunk)
    info = OP_INFO[uop.op]
    assert word.uop == uop and word.uop.x86_addr is None
    assert len(chunk) == uop.length == word.shape & 0x7F
    assert bool(word.shape & 0x80) == uop.fused
    assert word.info is info
    assert (info.branch, info.relative, info.boundary) == \
        (uop.is_branch, uop.op in (UOp.BC, UOp.JMP, UOp.JCSRC, UOp.JCSRT),
         uop.is_branch or info.barrier)
    assert word.canonical == is_canonical(uop.op, chunk) \
        == (encode_uop(uop) == chunk)
    assert word.facts is None       # the verifier's, on first need
    reads, writes, writes_flags, window = facts = word_facts(word)
    assert word_facts(word) is facts is word.facts      # derived once
    assert reads == regs_read(uop)
    assert writes == regs_written(uop) \
        == (0 if uop.dest() is None else 1 << uop.dest())
    assert writes_flags == uop.writes_flags \
        == (uop.setflags or info.always_flags)
    assert window == (uop.op in (UOp.RDFLG, UOp.WRFLG))


@st.composite
def words_of_every_form(draw):
    """The bytes of a word with a valid opcode number and arbitrary
    operand bits: don't-care bits set, condition fields out of range."""
    info = OP_INFO[draw(st.sampled_from(sorted(UOp, key=lambda o: o.value)))]
    fused = draw(st.booleans())
    if info.length == 2:
        first = info.number << 9 | draw(st.integers(0, 0x1FF))
        return (first | fused << 15).to_bytes(2, "little")
    bits = draw(st.integers(0, 0xFFFFFF))
    first = 0x4000 | fused << 15 | info.number << 8 | bits >> 16
    return first.to_bytes(2, "little") + (bits & 0xFFFF).to_bytes(2, "little")


class TestEntryFields:
    @given(uop=any_uop)
    @settings(max_examples=500, deadline=None)
    def test_entry_of_an_emitted_micro_ops_encoding(self, uop):
        try:
            chunk = encode_uop(uop)
        except UopEncodeError:
            return      # nothing to key an entry by
        table = WordTable()
        word = table[chunk]
        assert table[chunk] is word and list(table) == [chunk]
        assert word.canonical
        assert_entry_is_the_direct_derivation(chunk, word)

    @given(chunk=words_of_every_form())
    @settings(max_examples=1000, deadline=None)
    def test_entry_of_arbitrary_bytes_of_every_form(self, chunk):
        table = WordTable()
        try:
            word = table[chunk]
        except UopDecodeError:
            with pytest.raises(UopDecodeError):
                decode_uop(chunk)
            assert not table        # undecodable bytes are not cached
            return
        assert_entry_is_the_direct_derivation(chunk, word)

    def test_the_generator_reaches_non_canonical_and_undecodable_words(self):
        from hypothesis import find

        def undecodable(chunk):
            try:
                decode_uop(chunk)
            except UopDecodeError:
                return True
            return False
        # the predicate has to answer for every word the search tries on
        # its way, undecodable ones included
        stray = find(words_of_every_form(),
                     lambda chunk: not undecodable(chunk)
                     and decode_uop(chunk).op is UOp.VMEXIT
                     and not is_canonical(UOp.VMEXIT, chunk))
        assert not WordTable()[stray].canonical
        assert find(words_of_every_form(), undecodable)

    def test_a_word_outside_any_table_reads_as_its_micro_op(self):
        # a word made of a micro-op, not read from bytes
        uop = MicroOp(UOp.LDW, rd=17, rs1=16, imm=5000, x86_addr=0x40_0000)
        word = Word(uop)
        assert word.uop is uop and not word.canonical
        assert word_facts(word)[:2] == (1 << 16, 1 << 17)


# -- a context's verdicts, rule by rule ----------------------------------------

CHANGED_RULES = ("SCR001", "PRS001")


def direct_findings(stream):
    """``(rule, index)`` of every violation of the two rules whose facts
    now come from table entries, derived per micro-op the way the rules
    did before: ``regs_read`` of each micro-op its bytes read back as,
    the two separate analyses."""
    cfg = cfg_of(stream)
    found = Counter()
    for loc, defined, flags in zip(cfg.locs, definitely_defined(cfg),
                                   flag_provenance(cfg)):
        uop = loc.uop
        if defined is None:
            continue    # unreachable
        found["SCR001", loc.index] += len(
            regs_in(regs_read(uop) & VMM_MASK & ~defined))
        handoff = uop.op is UOp.VMEXIT or (
            uop.op is UOp.VMCALL and uop.imm != int(VMService.PROFILE))
        if handoff and not flags[0]:
            found["PRS001", loc.index] += 1
    return +found


def findings(report, rules=CHANGED_RULES):
    return Counter((violation.rule_id, violation.index)
                   for violation in report.violations
                   if violation.rule_id in rules)


class TestAContextFromMicroOps:
    """A stream written down as micro-ops, screened as its bytes."""

    @given(stream=st.lists(any_uop, min_size=1, max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_same_verdicts_as_the_per_micro_op_derivations(self, stream):
        report = verify_stream(stream)
        assert findings(report) == direct_findings(stream)
        # whatever a shared table already holds, the report is the same,
        # rule by rule, message by message
        shared = WordTable()
        for uop in stream:
            shared[encode_uop(uop)]
        held = len(shared)
        again = run_rules(VerifyContext.from_code(
            encode_stream(stream), [uop.x86_addr for uop in stream],
            words=shared))
        assert again == report
        assert len(shared) == held      # nothing new to decode


# -- the table's contract -------------------------------------------------------

def booted(source=LOOP, config=None) -> CoDesignedVM:
    vm = CoDesignedVM(config or vm_soft(), hot_threshold=50)
    vm.load(assemble(source))
    return vm


def architected(vm):
    return vm.state.exit_code, vm.state.output, list(vm.state.regs)


@pytest.fixture(scope="module")
def interpreted():
    vm = booted(config=ref_superscalar())
    vm.run()
    return architected(vm)


class TestTableSemantics:
    def test_a_word_cut_short_by_the_end_of_the_stream(self):
        code = encode_stream([MicroOp(UOp.ADDI2, rd=1, imm=1),
                              MicroOp(UOp.ADDI, rd=2, rs1=1, imm=5)])
        for cut in (1, 2, 3):
            table = WordTable()
            with pytest.raises(UopDecodeError, match="truncated"):
                decode_stream(code[:-cut], words=table)
            assert list(table) == [code[:2]]    # the whole word before it
        with pytest.raises(UopDecodeError, match="truncated"):
            WordTable()[code[:1]]

    def test_a_non_canonical_word_has_an_entry_of_its_own(self):
        vmexit = MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET)
        clean = encode_uop(vmexit)
        stray = clean[:2] + bytes([clean[2] | 0x07, clean[3]])  # rs2 bits
        table = WordTable()
        assert decode_stream(clean + stray, words=table) == [vmexit, vmexit]
        assert set(table) == {clean, stray}
        assert table[clean].canonical and not table[stray].canonical
        assert table[clean].uop == table[stray].uop
        # ... which no screen reads: its bytes are not its encoding
        with pytest.raises(UopDecodeError, match="micro-op 1 .*don't-care"):
            VerifyContext.from_code(clean + stray, words=table)

    def test_without_a_table_every_word_is_decoded(self, monkeypatch):
        # a table for one stream would only cost: same micro-ops, no
        # entries, one decode per micro-op
        decodes = counted(monkeypatch, "decode_uop", (encoding_module,))
        uops = [MicroOp(UOp.ADDI2, rd=1, imm=1)] * 3
        assert decode_stream(encode_stream(uops)) == uops
        assert len(decodes) == 3
        assert decode_stream(encode_stream(uops), words=WordTable()) == uops
        assert len(decodes) == 4

    def test_stamping_never_touches_the_tables_micro_op(self):
        table = WordTable()
        code = encode_stream([MicroOp(UOp.ADDI2, rd=1, imm=1)] * 2)
        first, second = decode_stream(code, [0x40_0000, None], table)
        assert first.x86_addr == 0x40_0000
        assert second is table[code[:2]].uop and second.x86_addr is None

    def test_two_vms_in_one_process_share_nothing(self, tmp_path,
                                                  interpreted):
        """VM A boots clean from the store; then the store is tampered
        with and VM B boots from it: nothing A decoded serves B."""
        repo = TranslationRepository(tmp_path / "store")
        cold = booted()
        cold.run()
        cold.save_translations(repo)
        vm_a = booted()
        load_a = vm_a.warm_start(repo)
        assert load_a.loaded == load_a.attempted > 1 and not load_a.dropped
        vm_a.run()
        assert architected(vm_a) == interpreted
        table_a = dict(vm_a.runtime.machine.words)

        texts = stored_texts(repo.root)
        keys = [key for key in sorted(texts)
                if json.loads(texts[key])["kind"] == "bbt"][:1] \
            + [key for key in texts if json.loads(texts[key])["kind"] == "sbt"]
        # a block's source edited under its old key, the superblock
        # re-keyed to carry code holding a word that does not decode:
        # the format check catches both, before any decode
        edited, rekeyed = (json.loads(texts[key]) for key in keys)
        source = bytearray.fromhex(edited["source"][0][1])
        source[-1] ^= 1
        edited["source"][0][1] = source.hex()
        damage_stored(repo.root, keys[0], lambda _text: json.dumps(edited))
        (superblock,) = cold.runtime.directory.sbt_cache.translations
        rekeyed = with_stored_code(rekeyed, superblock, bytes.fromhex(
            "ff7fffff") + superblock.code[4:])
        records = [encode_record(rekeyed)] + [
            parse_record(text) for key, text
            in sorted(stored_texts(repo.root).items()) if key != keys[1]]
        vm_b = booted()
        assert not vm_b.runtime.machine.words
        load_b = WarmStartLoader(vm_b.runtime).load_records(records)
        assert load_b.corrupt == 2 == load_b.dropped
        assert load_b.loaded == load_a.loaded - 2
        vm_b.run()
        assert architected(vm_b) == interpreted
        table_b = vm_b.runtime.machine.words
        assert bytes.fromhex("ff7fffff") not in table_b
        assert not {id(word) for word in table_b.values()} \
            & {id(word) for word in table_a.values()}
        # A's table did not move while B booted
        assert dict(vm_a.runtime.machine.words) == table_a

    def test_a_table_dies_with_its_runtime(self):
        vm = booted()
        vm.run()
        table = vm.runtime.machine.words
        assert table
        vm.restart(warm=True)
        assert vm.runtime.machine.words is table    # the code survived
        vm.restart(warm=False)
        assert not vm.runtime.machine.words
        assert vm.runtime.machine.words is not table


# -- bounded by live code --------------------------------------------------------

SIX_LOOPS = "start:\n" + "".join(f"""
    mov ecx, 30
loop{n}:
    add esi, {n + 3}
    xor edi, esi
    dec ecx
    jnz loop{n}
""" for n in range(6)) + """
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""


class TestBoundedByLiveCode:
    def test_a_flush_drops_the_table(self):
        """Both caches too small for the program: every flush clears the
        table, so it ends no larger than the distinct words of what is
        installed -- and the VM computes what the interpreter does."""
        reference = booted(SIX_LOOPS, ref_superscalar())
        reference.run()

        image = assemble(SIX_LOOPS)
        state = X86State(memory=AddressSpace())
        state.regs[Reg.ESP] = DEFAULT_STACK_TOP
        state.eip = load_image(image, state.memory)
        directory = TranslationDirectory(
            state.memory, bbt_capacity=400, sbt_base=0x2010_0000,
            sbt_capacity=200)
        runtime = VMRuntime(state, vm_soft().with_(hot_threshold=5),
                            directory=directory)
        sizes = []
        real_flush = runtime._flush

        def flush(kind):
            sizes.append(len(runtime.machine.words))
            real_flush(kind)
            assert not runtime.machine.words
        runtime._flush = flush
        runtime.run()
        assert state.halted
        assert (state.exit_code, state.output, list(state.regs)) == \
            architected(reference)
        assert directory.bbt_cache.flushes + directory.sbt_cache.flushes \
            == len(sizes) >= 2
        assert all(sizes)       # each flush found a table to drop

        # live words: the canonical stream of every installed
        # translation and what its memory holds now (chain and redirect
        # patches rewrite a stub's or an entry's first word)
        live = set()
        for cache in (directory.bbt_cache, directory.sbt_cache):
            for translation in cache.translations:
                live |= {encode_uop(uop) for uop in translation.uops}
                live |= {encode_uop(uop) for uop in decode_stream(
                    state.memory.read(translation.native_addr,
                                      translation.native_len))}
        table = runtime.machine.words
        assert 0 < len(table) <= len(live)
        assert set(table) <= live
        # without the flushes it would hold every word it ever met
        unbounded = booted(SIX_LOOPS)
        unbounded.run()
        assert len(unbounded.runtime.machine.words) > len(table)


# -- exact counts on a wide image (the CI guard) -------------------------------

def wide_image(blocks=200, seed=17):
    """``blocks`` straight-line blocks run once each (the shape of the
    host-clock benchmark's ``wide_cold`` image), built here with the
    assembler: values seeded, control flow data independent."""
    values = random.Random(seed)
    regs = ("eax", "ebx", "edx", "esi")
    lines = ["start:", "    mov edi, 0x600000", "    mov ebp, 0x55555555"]
    lines += [f"    mov {reg}, {values.randrange(1, 0x7FFFFFFF)}"
              for reg in regs]
    for index in range(blocks):
        dst, src = values.sample(regs, 2)
        lines += [
            f"b{index}:",
            f"    add {dst}, {values.randrange(0x100, 0x1000)}",
            f"    xor {src}, {dst}",
            f"    mov [edi+{4 * values.randrange(1, 32)}], {src}",
            f"    sub {dst}, [edi+{4 * values.randrange(1, 32)}]",
            f"    lea {src}, [{dst}+{src}*2+{values.randrange(4, 120)}]",
            f"    test ebp, {1 << 2 * values.randrange(0, 6)}",
            "    jz bail",
        ]
    lines += ["    mov ebx, eax", "    mov eax, 1", "    int 0x80",
              "    mov ebx, esi", "    mov eax, 1", "    int 0x80",
              "    mov eax, 0", "    mov ebx, 0", "    int 0x80",
              "bail:", "    mov eax, 0", "    mov ebx, 99", "    int 0x80"]
    return "\n".join(lines) + "\n"


class TestExactCountsOnAWideImage:
    def test_one_decode_and_one_classification_per_distinct_word(
            self, monkeypatch):
        # the autouse sanitizer would screen every install again, each
        # time through a table of its own
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        source = wide_image()
        reference = booted(source, ref_superscalar())
        reference.run()
        assert reference.state.exit_code == 0
        cold = booted(source)
        cold_report = cold.run()
        records = capture_translations(cold.runtime.directory,
                                       cold.state.memory)
        assert len(records) == cold_report.blocks_translated >= 200
        streams = [translation.code for translation
                   in cold.runtime.directory.bbt_cache.translations]
        micro_ops = sum(len(decode_stream(code)) for code in streams)

        decodes = counted(monkeypatch, "decode_uop",
                          (encoding_module, rules_module, machine_module))
        classified = counted(monkeypatch, "regs_read", (dataflow_module,))
        vm = booted(source)
        load = WarmStartLoader(vm.runtime).load_records(
            copy.deepcopy(records))
        assert (load.loaded, load.dropped) == (len(records), 0)
        # the blocks were derived as template bytes: no record holds a
        # word to screen, nothing was decoded or classified
        assert decodes == classified == []
        words = vm.runtime.machine.words
        assert not words

        report = vm.run()
        assert report.blocks_translated == 0
        assert architected(vm) == architected(reference)
        # running decoded each distinct word it met once, the JMPs
        # chaining patched in among them, and classified none
        assert len(decodes) == len(words) and classified == []
        assert len(words) < micro_ops / 3       # what the table saves
        assert {id(uop) for uop in decodes} == \
            {id(word.uop) for word in words.values()}
        assert all(word.facts is None for word in words.values())
        assert any(word.uop.op is UOp.JMP for word in words.values())
