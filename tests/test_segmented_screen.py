"""One screen per directory: a segmented context is its one-segment
screens.

A ``VerifyContext`` joins many translations as **segments** of one word
stream; ``verify_directory`` screens a whole directory that way.
Nothing crosses a segment boundary, so these tests hold the joined
screen to the one-segment screens it batches -- the same rule ids,
messages, segment-relative indices, offsets, x86 addresses and context
lines, in the same order:

* every translation of the seed images booted under ``vm_soft``,
  ``vm_be``, ``vm_fe`` and ``interp_sbt``, as installed (all fifteen
  rules);
* every corpus entry of ``test_verifier_rules.py``, between two clean
  translations;
* the joins themselves: no fallthrough, branch target, fused pair or
  hoist scan crosses a boundary, and the dataflow starts each segment
  from the entry state.

A warm pull is judged record by record, and runs no screen: the loader
rebuilds every translation with the VM's own translators.  By search, a
pull of good records with one superblock's path damaged (an entry
swapped, dropped or appended, ``loops`` flipped, the head moved) loses
that record alone when it would lose it alone, and every counter handed
out is held by an installed translation; a pull whose early records
drop installs every later block with the next armed counter.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.verify.verifier as verifier_module
from repro.core import CoDesignedVM, interp_sbt, vm_be, vm_fe, vm_soft
from repro.faults.plane import injecting
from repro.isa.fusible.encoding import WordTable, encode_stream
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.x86lite.registers import Cond
from repro.persist import (
    WarmStartLoader,
    capture_translations,
    encode_record,
)
from repro.translator.bbt import COUNTER_AREA_BASE
from repro.translator.emit import PROFILE_PROLOGUE_BYTES, prologue_code
from repro.verify import sanitizer, verify_directory, verify_translation
from repro.verify.rules import Segment, VerifyContext, live_native_entries
from repro.verify.verifier import run_rules
from tests.sbt_oracle import origin_runs
from tests.test_stored_blocks import mutate_path
from tests.test_templates import IMAGES, cold_boot
from tests.test_verifier_rules import CORPUS, exit_stub, make_translation
from tests.test_word_screen import Rejecting

CONFIGS = {"vm_soft": vm_soft, "vm_be": vm_be, "vm_fe": vm_fe,
           "interp_sbt": interp_sbt}


def findings(violations):
    """Everything a violation says, and which segment it is in."""
    return [(v.segment, v.rule_id, v.message, v.index, v.offset,
             v.x86_addr, v.entry, v.kind, v.context) for v in violations]


def joined_and_alone(parts, **where):
    """``(findings, rules run)`` of one context over all ``parts``
    (``Segment`` arguments) and of one context per part, the latter's
    segment numbers set to the part's position."""
    table = WordTable()
    joined = run_rules(VerifyContext(
        words=table, segments=[Segment(table=table, **part)
                               for part in parts], **where))
    alone, rules = [], set()
    for position, part in enumerate(parts):
        report = run_rules(VerifyContext(
            words=table, segments=[Segment(table=table, **part)], **where))
        rules.add(report.rules_run)
        alone += [(position,) + finding[1:]
                  for finding in findings(report.violations)]
    return (findings(joined.violations), {joined.rules_run}), \
        (alone, rules)


# -- every translation of the images -------------------------------------------

@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_translation_of_the_images(config):
    checked = 0
    for name in sorted(IMAGES):
        vm = cold_boot(IMAGES[name], CONFIGS[config]())
        directory = vm.runtime.directory
        translations = [translation for cache
                        in (directory.bbt_cache, directory.sbt_cache)
                        for translation in cache.translations]
        live = live_native_entries(directory)
        joined = verify_directory(directory)
        alone = [verify_translation(translation, directory.memory,
                                    directory, live, directory.words)
                 for translation in translations]
        if not translations:    # nothing ran hot, nothing translated
            continue
        checked += 1
        assert joined.translations_checked == len(translations)
        assert joined.uops_checked == sum(r.uops_checked for r in alone)
        assert {joined.rules_run} == {r.rules_run for r in alone}
        assert len(joined.rules_run) == 15
        assert joined.to_dict()["violations"] == \
            [v.to_dict() for r in alone for v in r.violations]
    assert checked >= 9


# -- the corpus between two clean translations --------------------------------

def corpus_contexts(fixture, monkeypatch):
    """The contexts ``fixture()`` screens."""
    seen = []
    real = verifier_module.run_rules

    def watching(ctx):
        seen.append(ctx)
        return real(ctx)
    monkeypatch.setattr(verifier_module, "run_rules", watching)
    fixture()
    monkeypatch.undo()
    return seen


def neighbour(native_addr, memory, with_translation):
    """A clean one-stub translation, as segment arguments."""
    uops = exit_stub(0x40_0100, addr=0x40_0000)
    if not with_translation:
        return dict(code=encode_stream(uops), origins=origin_runs(uops))
    translation = make_translation(uops, exits=[(0, "jump", 0x40_0100)],
                                   native_addr=native_addr, memory=memory)
    return dict(code=translation.code, origins=translation.origins,
                translation=translation)


@pytest.mark.parametrize("expected,fixture", CORPUS,
                         ids=[fn.__name__ for _rule, fn in CORPUS])
def test_a_corpus_entry_between_clean_translations(expected, fixture,
                                                   monkeypatch):
    (ctx,) = corpus_contexts(fixture, monkeypatch)
    (seg,) = ctx.segments
    part = dict(code=seg.code, origins=seg.origins,
                translation=seg.translation)
    has_translation = seg.translation is not None
    parts = [neighbour(0x2100_0000, ctx.memory, has_translation), part,
             neighbour(0x2200_0000, ctx.memory, has_translation)]
    where = dict(memory=ctx.memory, directory=ctx.directory,
                 live_entries=ctx._live_entries)
    joined, alone = joined_and_alone(parts, **where)
    assert joined == alone
    found = joined[0]
    assert expected in {rule for segment, rule, *_ in found}
    assert {segment for segment, *_ in found} == {1}


# -- one damaged record in a pull of good ones ---------------------------------

def booted():
    """The sieve image, whose pull holds six superblocks."""
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(IMAGES["sieve"])
    return vm


@pytest.fixture(scope="module")
def pull():
    vm = booted()
    vm.run()
    records = capture_translations(vm.runtime.directory, vm.state.memory)
    assert sum(record["kind"] == "sbt" for record in records) > 1
    return records


def loaded(records):
    """``(report, vm)`` of a fresh VM's warm load of ``records``."""
    vm = booted()
    return WarmStartLoader(vm.runtime).load_records(records), vm


class TestOneDamagedRecordInAPull:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_judged_as_alone(self, pull, data):
        position = data.draw(st.sampled_from(
            [index for index, record in enumerate(pull)
             if record["kind"] == "sbt"]))
        fields = json.loads(pull[position].text)
        mutate_path(fields, data.draw)
        damaged = encode_record(fields)
        records = [damaged if index == position else record
                   for index, record in enumerate(pull)]
        report, vm = loaded(records)
        by_itself, _vm = loaded([damaged])
        dropped = 1 - by_itself.loaded
        assert report.loaded == len(records) - dropped
        assert report.dropped == by_itself.dropped == dropped
        held = sorted(t.counter_addr for t in
                      vm.runtime.directory.bbt_cache.translations)
        assert held == list(range(COUNTER_AREA_BASE,
                                  vm.runtime.bbt._next_counter, 4))
        assert len(held) == report.bbt_loaded


class TestADroppedRecordMovesNoScreen:
    def test_one_screen_and_consecutive_counters(self, monkeypatch):
        """A stale block and a superblock refused at the install gate:
        no record is screened (the loader runs no rule-pack), and every
        later block is installed with the next armed counter."""
        source = cold_boot(IMAGES["quicksort"])
        cold = {t.entry: t for t in source.runtime.directory.bbt_cache
                .translations}
        records = capture_translations(source.runtime.directory,
                                       source.state.memory)
        bbt_records = sorted((record for record in records
                              if record["kind"] == "bbt"),
                             key=lambda record: record["entry"])
        superblocks = [record for record in records
                       if record["kind"] == "sbt"]
        stale, rejected = bbt_records[0], superblocks[0]
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(IMAGES["quicksort"])
        vm.state.memory.write(stale["entry"], b"\x90")
        # the autouse sanitizer screens every install; this test counts
        # the loader's own screens
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        screens = []
        real = verifier_module.run_rules

        def counting(ctx):
            screens.append(len(ctx.segments))
            return real(ctx)
        monkeypatch.setattr(verifier_module, "run_rules", counting)
        with injecting(Rejecting({rejected["entry"]}, kind="sbt")):
            report = WarmStartLoader(vm.runtime).load_records(records)
        assert screens == [] and len(superblocks) > 1
        assert (report.stale_source, report.verifier_rejected,
                report.dropped) == (1, 1, 2)
        assert report.loaded == len(records) - 2
        installed = sorted(vm.runtime.directory.bbt_cache.translations,
                           key=lambda translation: translation.entry)
        assert [t.entry for t in installed] == \
            [record["entry"] for record in bbt_records[1:]]
        assert [t.counter_addr for t in installed] == list(range(
            COUNTER_AREA_BASE, COUNTER_AREA_BASE + 4 * len(installed), 4))
        for translation in installed:
            if not vm.runtime.directory.has_sbt(translation.entry):
                assert vm.state.memory.read_u32(translation.counter_addr) \
                    == vm.runtime.bbt.hot_threshold
            # the cold block's bytes, its prologue counting its counter
            code = cold[translation.entry].code
            assert translation.code == \
                prologue_code(translation.counter_addr) \
                + code[PROFILE_PROLOGUE_BYTES:]


# -- the boundaries ------------------------------------------------------------

def parts_of(*streams):
    return [dict(code=encode_stream(uops), origins=None)
            for uops in streams]


def context(*streams):
    table = WordTable()
    return VerifyContext(words=table, segments=[
        Segment(table=table, **part) for part in parts_of(*streams)])


ADD = MicroOp(UOp.ADDI, rd=1, rs1=1, imm=1)
HALT = MicroOp(UOp.HALT)


class TestNothingCrossesABoundary:
    def test_no_fallthrough_edge(self):
        ctx = context([ADD, ADD], [ADD, HALT])
        assert [block.succs for block in ctx.cfg.blocks] == [[], []]

    def test_a_branch_into_the_next_segment_is_ctl001(self):
        # +4 from the end of the first stream is the second's second
        # micro-op: a boundary of the joined stream, not of its own
        branch = MicroOp(UOp.BC, cond=Cond.E, imm=4)
        joined, alone = joined_and_alone(parts_of([branch], [ADD, ADD,
                                                            HALT]))
        assert joined == alone
        assert [finding[:2] for finding in joined[0]] == [(0, "CTL001")]

    def test_a_fused_head_at_a_segment_end_has_no_tail(self):
        head = MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True)
        ctx = context([ADD, head], [MicroOp(UOp.ADD2, rd=6, rs1=5), HALT])
        assert ctx.pairs == [(1, None)]
        joined, alone = joined_and_alone(parts_of(
            [ADD, head], [MicroOp(UOp.ADD2, rd=6, rs1=5), HALT]))
        assert joined == alone
        assert {finding[:2] for finding in joined[0]} == {(0, "FUS002")}

    def test_the_hoist_scan_stops_at_a_segment_end(self):
        table = WordTable()
        fused = [MicroOp(UOp.ADDI, rd=5, rs1=1, imm=1, fused=True),
                 MicroOp(UOp.ADD2, rd=6, rs1=5, setflags=True)]
        # the next segment's first micro-op writes the flags at an
        # address between head and tail: inside one segment, a hoist
        parts = [dict(code=encode_stream(fused),
                      origins=[[0x100, 1], [0x108, 1]]),
                 dict(code=encode_stream(
                     [MicroOp(UOp.SUBI, rd=2, rs1=2, imm=1, setflags=True),
                      HALT]), origins=[[0x104, 2]])]
        joined, alone = joined_and_alone(parts)
        assert joined == alone and joined[0] == []
        whole = dict(code=parts[0]["code"] + parts[1]["code"],
                     origins=parts[0]["origins"] + parts[1]["origins"])
        one = run_rules(VerifyContext(words=table, segments=[
            Segment(table=table, **whole)]))
        assert [v.rule_id for v in one.violations] == ["FUS005"]

    def test_each_segment_starts_from_the_entry_state(self):
        # the first segment defines a VMM register; the second reads it
        define = MicroOp(UOp.ADDI, rd=16, rs1=1, imm=1)
        use = MicroOp(UOp.ADD, rd=1, rs1=16, rs2=2)
        joined, alone = joined_and_alone(parts_of([define, HALT],
                                                  [use, HALT]))
        assert joined == alone
        assert [finding[:4] for finding in joined[0]] == \
            [(1, "SCR001", joined[0][0][2], 0)]

    def test_a_stub_past_the_segment_end_is_off_its_boundary(self):
        stub = exit_stub(0x40_0100)
        parts = [dict(code=translation.code, origins=None,
                      translation=translation)
                 for translation in (
                     make_translation(stub, exits=[(12, "jump", 0x40_0100)]),
                     make_translation(stub, exits=[(0, "jump", 0x40_0100)],
                                      native_addr=0x2000_0100))]
        joined, alone = joined_and_alone(parts)
        assert joined == alone
        assert [finding[:2] for finding in joined[0]] == [(0, "STB001")]
