"""The word walk is the object walk, by search.

A ``VerifyContext`` is a stream's bytes, the word-table entry at each
offset and the ``x86_addr`` metadata as runs; it is built from nothing
else, and the loader hands ``materialize`` no micro-op list.  These
tests hold that representation to the one it replaced:

* a stream's metadata as runs and as one ``x86_addr`` a micro-op return
  the same report, violation by violation, field by field, and the
  context's micro-op view is the stream (``strategies.uops``,
  ``native_programs``, the branchy CFGs);
* every corpus entry (``test_verifier_rules.py``) raises, field for
  field, what it raised through the micro-op entry the verifier had
  before it read bytes only (a pinned digest), FUS005's hoisted tail
  with addresses that arrive only as runs included; a run table that
  covers one micro-op more or fewer is a decode error (``corrupt``);
* ``_DefinedAndFlags`` stepped a block at a time equals the product of
  the two per-micro-op analyses, on loops that lower an in-state too;
* a warm load of SBT records (fused pairs, non-monotone origins) and
  derived blocks installs what the object path -- decode, re-bind by
  ``replace``, encode -- produces, byte for byte;
* a dropped record holds no profiling counter;
* exact counts (``tools/callcounts.py``): no per-occurrence constructor;
  no screen for a pull of basic blocks, and one context, one CFG and
  one rule-pack run for a pull that holds superblocks.
"""

import copy
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults.plane import injecting
from repro.isa.fusible.encoding import (
    UopDecodeError,
    UopEncodeError,
    decode_stream,
    decode_uop,
    encode_stream,
    encode_uop,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.fusible.registers import R_EXIT_TARGET
from repro.isa.x86lite import assemble
from repro.isa.x86lite.registers import Cond
from repro.persist import (
    WarmStartLoader,
    capture_translations,
    encode_record,
)
from repro.translator.bbt import COUNTER_AREA_BASE
from repro.translator.code_cache import expand_origins
from repro.verify import dataflow, sanitizer
from repro.verify.rules import VerifyContext
from repro.verify.verifier import run_rules
from repro.workloads.programs import PROGRAMS
from tests.sbt_oracle import origin_runs
from tests.stored import record_stream
from tests.strategies import native_programs
from tests.strategies import uops as any_uop
from tests.test_persist import LOOP
from tests.test_verifier_rules import (
    CORPUS,
    branchy_cfgs,
    cfg_of,
    has_back_edge,
    product_oracle,
    worklist_solve,
)

ADDRS = st.sampled_from([None, 0x40_0000, 0x40_0003, 0x40_0007, 0x40_0002])


def as_the_bytes_hold_it(uop, x86_addr):
    """``uop`` as its encoding reads back, ``x86_addr`` attached; None
    where it does not encode at all."""
    try:
        return decode_uop(encode_uop(uop), 0, x86_addr)
    except UopEncodeError:
        return None


def fields(report):
    return (report.rules_run, report.uops_checked,
            [(v.rule_id, v.index, v.offset, v.x86_addr, v.message,
              v.context) for v in report.violations])


def assert_both_entries_agree(stream):
    """``stream``'s bytes screened with its metadata as runs and spelled
    out, one ``x86_addr`` a micro-op: the same report; and the
    context's view of its micro-ops is ``stream``."""
    code = encode_stream(stream)
    from_runs = run_rules(VerifyContext.from_code(code, origin_runs(stream)))
    spelled = VerifyContext.from_code(code, [uop.x86_addr for uop in stream])
    assert fields(run_rules(spelled)) == fields(from_runs)
    assert spelled.uops == stream
    assert [uop.x86_addr for uop in spelled.uops] == \
        [uop.x86_addr for uop in stream]
    return from_runs


class TestBothEntriesAgree:
    """Both spellings of the metadata, on streams as their bytes hold
    them."""

    @given(stream=st.lists(st.tuples(any_uop, ADDRS), min_size=1,
                           max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_on_generated_streams(self, stream):
        held = [as_the_bytes_hold_it(uop, addr) for uop, addr in stream]
        assert_both_entries_agree([uop for uop in held if uop is not None])

    @given(program=native_programs(), addrs=st.lists(ADDRS, min_size=25,
                                                     max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_on_native_programs(self, program, addrs):
        held = [as_the_bytes_hold_it(uop, addr)
                for uop, addr in zip(program.uops, addrs)]
        assert_both_entries_agree([uop for uop in held if uop is not None])

    @given(cfg=branchy_cfgs())
    @settings(max_examples=300, deadline=None)
    def test_on_branchy_cfgs(self, cfg):
        # dropping a micro-op that does not encode would move the
        # branch targets: those streams are the corpus's (below)
        held = [as_the_bytes_hold_it(loc.uop, None) for loc in cfg.locs]
        if None not in held:
            assert_both_entries_agree(held)

    def test_the_generator_reaches_violations(self):
        from hypothesis import find
        # (FUS005 and PRS001 need several micro-ops in one order: the
        # corpus's streams, below, are those)
        for rule in ("FUS002", "CTL001", "SCR001"):
            def fires(stream, rule=rule):
                held = [as_the_bytes_hold_it(uop, addr)
                        for uop, addr in stream]
                held = [uop for uop in held if uop is not None]
                return bool(held) and rule in {
                    v.rule_id for v in
                    assert_both_entries_agree(held).violations}
            assert find(st.lists(st.tuples(any_uop, ADDRS), min_size=1,
                                 max_size=12), fires)


# -- the corpus through the bytes entry ----------------------------------------

#: every field of every violation, and ``uops_checked``, that each
#: corpus entry raised through the micro-op entry (``verify_uops``) the
#: verifier had before it read bytes only, as ``digest`` spells it
PARENT_DIGESTS = {
    "fus001_nonalu_head": "9ea212ccf461b0c7",
    "fus001_flagless_compare_branch": "d3435de2c4898698",
    "fus002_overlapping_pairs": "3d559032c621e9c3",
    "fus002_dangling_head": "3f7441fdfa4ea8ab",
    "fus002_tail_not_consuming": "73c255e02aa7af78",
    "fus003_four_source_pair": "120938b456d4c2c1",
    "fus004_barrier_head": "db18e92b79da19b3",
    "fus004_pair_into_jump": "2323e95b10d3785b",
    "fus005_hoist_across_flag_writer": "9261472403884415",
    "ctl001_misaligned_branch": "a47c0a944b07202e",
    "ctl002_runs_off_its_end": "ed9f14d57040fc99",
    "stb001_truncated_stub": "4339056704563eb3",
    "stb001_wrong_target_immediates": "d4eb6c365a1b9df7",
    "stb002_vmexit_wrong_register": "581cac76a7f23272",
    "scr001_scratch_use_before_def": "cf0aa726706a0cdf",
    "scr001_defined_on_one_path_only": "08cb97c3a2d4e094",
    "prs001_unbalanced_save_window": "f455ba44372459d1",
    "cch001_corrupted_cache_image": "b721447af13c6373",
    "chn001_stale_chain_target": "def7ef403b09f3d2",
    "chn002_unpatched_stub_not_vmexit": "8a3be2d307ca54b1",
    "sid001_vmcall_without_side_table": "79ae25cc081640c1",
}


def digest(report):
    violations = [dict(v.to_dict(), segment=v.segment)
                  for v in report.violations]
    return hashlib.sha256(json.dumps(
        [report.uops_checked, violations],
        sort_keys=True).encode()).hexdigest()[:16]


class TestCorpusThroughBytes:
    @pytest.mark.parametrize("expected,fixture", CORPUS,
                             ids=[fn.__name__ for _rule, fn in CORPUS])
    def test_same_violations_field_for_field(self, expected, fixture):
        report = fixture()
        assert expected in {v.rule_id for v in report.violations}
        assert digest(report) == PARENT_DIGESTS[fixture.__name__]

    def test_a_hoisted_tail_whose_addresses_arrive_only_as_runs(self):
        # five micro-ops, three runs: the tail (0x108) sits above the
        # flag writer (0x104) it was hoisted across
        stream = [
            MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
            MicroOp(UOp.ADD2, rd=6, rs1=5, setflags=True),
            MicroOp(UOp.SUBI, rd=2, rs1=2, imm=1, setflags=True),
            MicroOp(UOp.NOP), MicroOp(UOp.NOP)]
        ctx = VerifyContext.from_code(
            encode_stream(stream), [[0x100, 1], [0x108, 1], [0x104, 3]])
        assert [ctx.addr_at(index) for index in range(5)] == \
            [0x100, 0x108, 0x104, 0x104, 0x104]
        (violation,) = run_rules(ctx).violations
        assert (violation.rule_id, violation.index, violation.x86_addr) \
            == ("FUS005", 1, 0x108)
        assert "x86 0x104" in violation.message

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_runs_that_miss_the_stream_by_one_are_a_decode_error(
            self, delta):
        code = encode_stream([MicroOp(UOp.NOP)] * 4)
        with pytest.raises(UopDecodeError, match="covers"):
            VerifyContext.from_code(code, [[0x100, 2], [0x104, 2 + delta]])
        with pytest.raises(UopDecodeError, match="covers"):
            VerifyContext.from_code(code, [None] * (4 + delta))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_such_a_record_is_corrupt_and_leaks_no_counter(self, delta):
        vm = booted()
        vm.run()
        fields = next(
            json.loads(record.text) for record in capture_translations(
                vm.runtime.directory, vm.state.memory)
            if record["kind"] == "sbt")
        # one more micro-op than the code holds passes the format's
        # bound only on a stream of 16-bit words; one fewer always does
        fields["origins"][-1][1] += delta
        record = encode_record(fields)
        fresh = booted()
        report = WarmStartLoader(fresh.runtime).load_records([record])
        assert (report.corrupt, report.loaded) == (1, 0)
        assert fresh.runtime.bbt._next_counter == COUNTER_AREA_BASE


# -- the block step against the product ----------------------------------------

def sweeps(cfg):
    """``(states, bids walked)`` of the block-stepped analysis."""
    walked = []

    class Counting(dataflow._DefinedAndFlags):
        def walk(self, state, block, before):
            walked.append(block.bid)
            return super().walk(state, block, before)

    return Counting().run(cfg), walked


class TestBlockStepEqualsTheProduct:
    @given(cfg=branchy_cfgs().filter(has_back_edge))
    @settings(max_examples=300, deadline=None)
    def test_on_generated_loops(self, cfg):
        states, _walked = sweeps(cfg)
        assert states == worklist_solve(product_oracle(), cfg)
        assert states == dataflow.defined_and_flags(cfg)

    def test_the_generator_draws_loops_that_lower_an_in_state(self):
        from hypothesis import find

        def lowered(cfg):
            states, walked = sweeps(cfg)
            assert states == worklist_solve(product_oracle(), cfg)
            return len(walked) > len(set(walked))
        assert find(branchy_cfgs().filter(has_back_edge), lowered)

    def test_a_loop_that_re_saves_the_flags_takes_a_second_sweep(self):
        # the back edge brings clobbered flags under an open window to a
        # head first entered with neither: its in-state drops to
        # (False, CONFLICT), and the re-save there saves nothing
        cfg = cfg_of([
            MicroOp(UOp.ADDI, rd=16, rs1=31, imm=1),
            MicroOp(UOp.RDFLG, rd=18),                  # <- loop head
            MicroOp(UOp.ADDI, rd=17, rs1=16, imm=1, setflags=True),
            MicroOp(UOp.BC, cond=Cond.NE, imm=-12),
            MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET),
        ])
        assert [(block.start, block.end, block.succs)
                for block in cfg.blocks] == \
            [(0, 1, [1]), (1, 4, [1, 2]), (4, 5, [])]
        states, walked = sweeps(cfg)
        assert walked == [0, 1, 2, 0, 1, 2]
        assert states == worklist_solve(product_oracle(), cfg)
        assert states[0][1] == (True, None)
        assert states[1][1] == states[4][1] == (False, dataflow.CONFLICT)
        assert states[2][0] >> 16 & 1 and not states[0][0] >> 16 & 1

    @given(uop=any_uop, arch=st.booleans(), defined=st.integers(0, 2**32 - 1),
           saved=st.one_of(st.none(), st.just(dataflow.CONFLICT),
                           st.integers(0, 31)))
    @settings(max_examples=1000, deadline=None)
    def test_one_word_from_any_state(self, uop, arch, defined, saved):
        loc = cfg_of([uop]).locs[0]
        state = (defined, (arch, saved))
        assert dataflow._DefinedAndFlags().transfer(state, loc) == \
            product_oracle().transfer(state, loc)


# -- what a warm load installs --------------------------------------------------

def booted(source=LOOP, hot_threshold=50) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=hot_threshold)
    vm.load(assemble(source))
    return vm


def layout(translation):
    """A cold block's code and metadata as layout 4 stored them: what a
    BBT record held before the loader derived the block."""
    native = translation.native_addr
    return {"kind": "bbt", "entry": translation.entry,
            "code": translation.code.hex(),
            "origins": translation.origins,
            "exits": [[stub.stub_addr - native, stub.kind,
                       stub.x86_target] for stub in translation.exits],
            "side_table": sorted([addr - native, x86_addr] for
                                 addr, x86_addr
                                 in translation.side_table.items())}


def object_path(records, cold):
    """``(fields, code, micro-op count, counter)`` per record in install
    order, the way the loader built them while it held micro-op lists:
    decode with ``x86_addr`` attached, bind the counter of a block
    (every BBT block of these VMs is profiled) by ``replace``, encode.
    A block's fields are those of ``cold``'s translation (a record
    holds only its entry)."""
    blocks = {translation.entry: layout(translation) for translation
              in cold.runtime.directory.bbt_cache.translations}
    counter = COUNTER_AREA_BASE
    for record in sorted(records, key=lambda r: (r["kind"] != "bbt",
                                                 r["entry"])):
        fields = record if record["kind"] == "sbt" \
            else blocks[record["entry"]]
        uops = decode_stream(*record_stream(fields))
        bound = None
        if record["kind"] == "bbt":
            bound, counter = counter, counter + 4
            uops[1] = replace(uops[1], imm=bound >> 13 & 0x7FFFF)
            uops[2] = replace(uops[2], imm=bound & 0x1FFF)
        yield fields, encode_stream(uops), uops, bound


class TestWarmLoadInstallsWhatTheObjectPathDid:
    @pytest.mark.parametrize("program", ["quicksort", "fibonacci"])
    def test_sbt_records_byte_for_byte(self, program):
        cold = booted(PROGRAMS[program], hot_threshold=8)
        cold.run()
        records = capture_translations(cold.runtime.directory,
                                       cold.state.memory)
        sbt = [record for record in records if record["kind"] == "sbt"]
        assert any(record["fused_pairs"] for record in sbt)
        assert any(addrs != sorted(addrs) for addrs in (
            [addr for addr, _count in record["origins"]
             if addr is not None] for record in sbt))

        vm = booted(PROGRAMS[program], hot_threshold=8)
        vm.runtime.enable_chaining = False
        report = WarmStartLoader(vm.runtime).load_records(
            copy.deepcopy(records))
        assert (report.loaded, report.dropped) == (len(records), 0)
        directory = vm.runtime.directory
        installed = directory.bbt_cache.translations \
            + directory.sbt_cache.translations
        assert len(installed) == len(records)
        for translation, (record, code, uops, counter) in zip(
                installed, object_path(records, cold)):
            native = translation.native_addr
            assert (translation.kind, translation.entry) == \
                (record["kind"], record["entry"])
            assert translation.code == code
            assert (translation.uop_count, translation.counter_addr,
                    translation.native_len) == \
                (len(uops), counter, len(code))
            assert [(stub.stub_addr - native, stub.kind, stub.x86_target,
                     stub.chained_to) for stub in translation.exits] == \
                [(*fields, None) for fields in record["exits"]]
            assert sorted((addr - native, x86_addr) for addr, x86_addr
                          in translation.side_table.items()) == \
                [tuple(side) for side in record["side_table"]]
            assert translation.uops == uops
            assert [uop.x86_addr for uop in translation.uops] == \
                expand_origins(record["origins"])
            skip = 4 if directory.is_redirected(native) else 0
            assert vm.state.memory.read(native + skip,
                                        len(code) - skip) == code[skip:]
        # ... and it computes what the cold VM computed
        vm.run()
        assert (vm.state.exit_code, vm.state.output) == \
            (cold.state.exit_code, cold.state.output)


# -- a dropped record holds no counter -----------------------------------------

class Rejecting:
    """A fault injector that fails ``loader.verify`` for chosen entries."""

    def __init__(self, entries):
        self.entries = entries

    def visit(self, site, context):
        return site == "loader.verify" and context["entry"] in self.entries


class TestDroppedRecordsLeakNoCounter:
    @pytest.fixture(scope="class")
    def records(self):
        vm = booted()
        vm.run()
        records = [record for record in capture_translations(
            vm.runtime.directory, vm.state.memory)
            if record["kind"] == "bbt"]
        assert len(records) > 2
        return records

    def test_every_record_rejected_by_the_verifier(self, records):
        vm = booted()
        bbt = vm.runtime.bbt
        with injecting(Rejecting({r["entry"] for r in records})):
            report = WarmStartLoader(vm.runtime).load_records(
                copy.deepcopy(records))
        assert report.verifier_rejected == len(records) == report.dropped
        assert bbt._next_counter == COUNTER_AREA_BASE

    def test_a_mixed_load_allocates_one_counter_per_loaded_record(
            self, records):
        vm = booted()
        bbt = vm.runtime.bbt
        fields = json.loads(records[1].text)
        fields["code"] = "00"       # a field of the superblock layout
        corrupt = encode_record(fields)
        load = [corrupt if record is records[1] else copy.deepcopy(record)
                for record in records]
        with injecting(Rejecting({records[0]["entry"]})):
            report = WarmStartLoader(vm.runtime).load_records(load)
        assert (report.verifier_rejected, report.corrupt) == (1, 1)
        assert report.bbt_loaded == len(records) - 2 > 0
        assert bbt._next_counter == \
            COUNTER_AREA_BASE + 4 * report.bbt_loaded
        # the counters handed out are the ones the translations hold
        assert sorted(t.counter_addr for t in
                      vm.runtime.directory.bbt_cache.translations) == \
            list(range(COUNTER_AREA_BASE, bbt._next_counter, 4))


# -- exact counts ---------------------------------------------------------------

@pytest.fixture(scope="module")
def callcounts():
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    sys.path.insert(0, tools)
    try:
        import callcounts
        return callcounts
    finally:
        sys.path.remove(tools)


class TestNoPerOccurrenceConstructor:
    def test_a_warm_boot_of_the_wide_image(self, callcounts, monkeypatch,
                                           tmp_path):
        # the autouse sanitizer would screen every install a second time
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        counts = callcounts.call_counts("wide_cold", warm=True)
        # what the bound is made of, from a boot of the same image
        image = assemble(callcounts.gen.generate_source(
            callcounts.gen.WIDE_COLD, 0))
        cold = CoDesignedVM(vm_soft(), hot_threshold=50)
        cold.load(image)
        cold.run()
        cold.save_translations(tmp_path / "store")
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(image)
        load = vm.warm_start(tmp_path / "store")
        vm.run()
        micro_ops = sum(t.uop_count for t in
                        vm.runtime.directory.bbt_cache.translations)
        distinct = len(vm.runtime.machine.words)
        chains = vm.runtime.directory.chains_made
        assert load.loaded == load.bbt_loaded >= 200 and chains > 0
        assert counts["MicroOp.__init__"] <= distinct < micro_ops / 2
        assert counts["decode_uop"] == distinct
        # a block is derived as template bytes, and so is a chain's JMP
        # (``emit.jump_code``): nothing encodes
        assert counts["encode_uop"] == 0
        assert counts["Located.__new__"] == 0
        assert counts["dataflow.transfer"] == 0
        # nothing re-encodes a record; each is hashed once, as stored,
        # beside the two fingerprints
        assert counts["JSON encodes"] == 0
        assert counts["SHA-256"] == load.loaded + 2
        # a pull of basic blocks holds no code: nothing is screened
        assert counts["VerifyContext"] == counts["build_cfg"] == \
            counts["run_rules"] == counts["dataflow.step"] == 0

    def test_a_warm_boot_with_superblocks_is_screened_once(
            self, callcounts, monkeypatch):
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        counts = callcounts.call_counts("hot_loop", warm=True)
        # one screen for the whole pull: one context, one CFG, one run
        # of the rule-pack over every superblock's segment
        assert counts["VerifyContext"] == counts["build_cfg"] == \
            counts["run_rules"] == 1
        assert counts["dataflow.step"] > 0
        assert counts["JSON encodes"] == 0
