"""The warm-install screen: one walk per record, nothing weakened.

A persisted record is screened by the full rule-pack before it is
installed.  These tests pin the properties of that screen:

* an SBT record whose code breaks an invariant is ``verifier_rejected``
  — not installed, not executed — for each rule the walk shares work
  between (SCR001, PRS001, FUS002).  The violations are **byte edits**
  of the record's ``code`` (a BBT record has none: the loader derives
  its block);
* each distinct word is decoded at most once per VM and no record's
  micro-op is encoded: the record's own bytes are its encoding, and
  they are what the code cache receives, the bytes the verifier read;
* a screen reads canonical bytes: a record whose code has a don't-care
  bit set is ``corrupt``, none of its bytes reach the code cache, and
  the warm run equals the cold one;
* numbers a record spells out in JSON are numbers: booleans and other
  junk never reach the loader's rebuild (``corrupt``);
* ``MicroOp`` under its hand-written constructor is the value type it
  was;
* a superblock cut short so that it ends in a plain ALU micro-op (the
  LOOP record at 0x40000a after its first micro-op, an ADD2) is
  ``verifier_rejected`` (CTL002) and the warm run equals the cold one;
  loaded, the machine would run on into the next translation's bytes;
* a store damaged at one stage (corrupt, stale, duplicate, capacity,
  verifier) counts what it counted when each record had a context of
  its own, and every counter handed out is held by an installed
  translation.
"""

import copy
import json
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, replace
from typing import Optional

import pytest

import repro.isa.fusible.encoding as encoding_module
import repro.isa.fusible.machine as machine_module
import repro.verify.rules as rules_module
import repro.verify.verifier as verifier_module
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.encoding import (
    UopDecodeError,
    decode_stream,
    encode_stream,
    encode_uop,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.x86lite import assemble
from repro.isa.x86lite.registers import Cond
from repro.persist import (
    PersistFormatError,
    WarmStartLoader,
    capture_translations,
    encode_record,
    materialize,
    validate_record,
)
from repro.translator.bbt import COUNTER_AREA_BASE
from repro.verify import sanitizer, verify_directory, verify_translation
from repro.verify.rules import VerifyContext
from repro.verify.verifier import run_rules
from tests.stored import record_stream
from tests.test_persist import LOOP

def booted(source=LOOP) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(source))
    return vm


def decoded(record):
    return decode_stream(*record_stream(record))


@pytest.fixture(scope="module")
def records():
    vm = booted()
    vm.run()
    return capture_translations(vm.runtime.directory, vm.state.memory)


@pytest.fixture
def victim(records):
    """The fields of the LOOP superblock, as an editable dict: the fused
    ADD2/DECF pair, the BC out of the loop, the JMP back and the exit
    stub (LUI/ORI to R29, VMEXIT)."""
    (record,) = [r for r in records if r["kind"] == "sbt"]
    assert [uop.op for uop in decoded(record)] == [
        UOp.ADD2, UOp.DECF, UOp.BC, UOp.JMP, UOp.LUI, UOp.ORI, UOp.VMEXIT]
    return json.loads(record.text)


def resealed(fields):
    """The fields as a record with its content key recomputed:
    structurally valid, so only the decoder and the verifier stand
    between it and the code cache."""
    record = encode_record(fields)
    validate_record(record)
    return record


def splice(record, index, **fields):
    """Overwrite the bytes of micro-op ``index`` of the record's code
    with those of the same micro-op with ``fields`` changed (an edit
    that keeps the length, so nothing else moves)."""
    uops = decoded(record)
    if index < 0:
        index += len(uops)
    offset = len(encode_stream(uops[:index]))
    patch = encode_uop(replace(uops[index], **fields))
    assert len(patch) == uops[index].length
    code = bytearray.fromhex(record["code"])
    code[offset:offset + len(patch)] = patch
    record["code"] = code.hex()


def break_scr001(record):
    splice(record, -2, rs1=20)          # the stub's ORI: r20 never defined


def break_prs001(record):
    # the back edge becomes a WRFLG from a copy no RDFLG saved: the
    # exit is reached with the architected flags overwritten
    splice(record, 3, op=UOp.WRFLG, rs1=20, imm=0)


def break_fus002(record):
    # a head with no successor: the fused bit is bit 15 of the first
    # (little-endian) parcel of the last, 32-bit micro-op
    code = bytearray.fromhex(record["code"])
    code[-3] |= 0x80
    record["code"] = code.hex()
    assert decoded(record)[-1].fused


BREAKS = {"SCR001": break_scr001, "PRS001": break_prs001,
          "FUS002": break_fus002}


class TestViolatingRecordsNeverRun:
    @pytest.mark.parametrize("rule", sorted(BREAKS))
    def test_record_is_verifier_rejected(self, rule, victim):
        BREAKS[rule](victim)
        record = resealed(victim)
        vm = booted()
        directory = vm.runtime.directory
        # the record does break the rule it is meant to break
        translation = materialize(record, len(decoded(record))).place(
            directory.sbt_cache.reserve(), record["exits"],
            record["side_table"])
        translation.code = record_stream(record)[0]
        found = verify_translation(translation)
        assert rule in {violation.rule_id for violation in found.violations}

        report = WarmStartLoader(vm.runtime).load_records([record])
        assert report.verifier_rejected == 1
        assert report.loaded == 0 and report.dropped == 1
        # not installed ...
        assert directory.lookup(record["entry"]) is None
        assert directory.sbt_cache.used_bytes == 0
        assert not directory.sbt_cache.translations
        # ... and so never executed: the VM translates the block itself
        # and computes what a cold VM computes
        result = vm.run()
        reference = booted()
        expected = reference.run()
        assert result.blocks_translated == expected.blocks_translated
        assert (vm.state.exit_code, vm.state.output) == \
            (reference.state.exit_code, reference.state.output)

    def test_clean_record_still_loads(self, victim):
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records(
            [resealed(victim)])
        assert (report.loaded, report.dropped) == (1, 0)


def counted(monkeypatch, name, modules):
    """Replace ``name`` in ``modules`` by a wrapper that records every
    result; returns the list of results."""
    real = getattr(modules[0], name)
    results = []

    def counting(*args):
        result = real(*args)
        results.append(result)
        return result

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return results


def recorded_installs(monkeypatch, directory, progress):
    """Record ``(len(progress), data, translation)`` at every install."""
    installs = []
    real_install = directory.install

    def recording_install(data, translation, *placement):
        installs.append((len(progress), data, translation))
        real_install(data, translation, *placement)

    monkeypatch.setattr(directory, "install", recording_install)
    return installs


class TestOneEncodePerMicroOp:
    def test_installed_bytes_are_the_bytes_the_verifier_saw(
            self, records, monkeypatch):
        # the autouse sanitizer would verify (and so encode) each
        # install a second time; this test counts the loader's own work
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        encoded = counted(monkeypatch, "encode_uop", (encoding_module,))
        vm = booted()
        directory = vm.runtime.directory
        installs = recorded_installs(monkeypatch, directory, encoded)
        vm.runtime.enable_chaining = False
        report = WarmStartLoader(vm.runtime).load_records(
            records)
        assert report.loaded == len(records) > 1

        # every record here is canonical, and a block is derived as
        # template bytes, as is the JMP that redirects the loop's block
        # to its superblock (``emit.jump_code``): nothing is encoded
        stored = {r["entry"]: bytes.fromhex(r["code"]) for r in records
                  if r["kind"] == "sbt"}
        assert stored and encoded == []
        for _calls, data, translation in installs:
            # the bytes handed to the code cache are the verifier's:
            # a superblock's are the record's own
            if translation.kind == "sbt":
                assert data == stored.pop(translation.entry)
            # ... and they are what the machine will decode (but for
            # the redirect JMP at the entry of a superseded block)
            skip = 4 if directory.is_redirected(translation.native_addr) \
                else 0
            assert vm.state.memory.read(translation.native_addr + skip,
                                        len(data) - skip) == data[skip:]
        assert not stored
        assert verify_directory(directory).ok

    def test_at_most_one_decode_per_distinct_word_per_vm(
            self, records, monkeypatch):
        """Loader, verifier and machine share the VM's word table: an
        install and the run behind it decode each distinct word once,
        however many micro-ops hold it -- the screened superblock's
        words, the derived blocks' and what chaining patches into the
        code cache."""
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        vm = booted()
        total = sum(len(decoded(r)) for r in records if r["kind"] == "sbt")
        decodes = counted(monkeypatch, "decode_uop",
                          (encoding_module, rules_module, machine_module))
        report = WarmStartLoader(vm.runtime).load_records(records)
        assert report.loaded == len(records) > 1
        words = vm.runtime.machine.words
        screened = len(decodes)
        assert 0 < screened == len(words) <= total
        vm.run()
        # the machine met words no record holds (chain JMPs) and decoded
        # those, and only those: every decode made is an entry's
        assert len(decodes) == len(words) > screened
        assert {id(uop) for uop in decodes} == \
            {id(word.uop) for word in words.values()}
        # a second VM shares nothing with the first
        other = booted()
        assert not other.runtime.machine.words
        WarmStartLoader(other.runtime).load_records(records)
        assert len(decodes) == len(words) + screened


class TestRoundTripByConstruction:
    """A screen reads canonical bytes: a word is its own encoding
    exactly when no don't-care bit of its form is set
    (``is_canonical``), and a stream holding any other word does not
    read."""

    def test_every_decoded_micro_op_is_proven(self, victim):
        ctx = VerifyContext.from_code(*record_stream(victim))
        assert all(word.canonical for word in ctx.words)
        assert encode_stream(ctx.uops) == bytes.fromhex(victim["code"])
        assert run_rules(ctx).ok

    def test_dont_care_bits_install_canonical_bytes(self, victim,
                                                    monkeypatch):
        """The only bytes that reach the code cache are canonical: a
        record whose final VMEXIT has its rs2 bits set (a field its form
        does not carry), re-keyed, decodes to the clean record's
        micro-ops, yet is corrupt, and the VM translates the loop
        itself."""
        clean_code = bytes.fromhex(victim["code"])
        code = bytearray(clean_code)
        code[-2] |= 0x07         # rs2 bits of the final VMEXIT: no field
        victim["code"] = code.hex()
        record = resealed(victim)
        assert decoded(record) == decoded({**record,
                                           "code": clean_code.hex()})
        with pytest.raises(UopDecodeError, match="don't-care"):
            VerifyContext.from_code(*record_stream(record))

        cold = booted()
        cold.run()
        vm = booted()
        installs = recorded_installs(monkeypatch, vm.runtime.directory, [])
        report = WarmStartLoader(vm.runtime).load_records([record])
        assert (report.corrupt, report.loaded, report.dropped) == (1, 0, 1)
        assert installs == []
        vm.run()
        stray = bytes(code[-4:])
        assert installs and all(stray not in data
                                for _calls, data, _translation in installs)
        assert all(stray not in vm.state.memory.read(
            translation.native_addr, translation.native_len)
            for cache in (vm.runtime.directory.bbt_cache,
                          vm.runtime.directory.sbt_cache)
            for translation in cache.translations)
        assert (vm.state.exit_code, vm.state.output, vm.state.regs) == \
            (cold.state.exit_code, cold.state.output, cold.state.regs)


class TestDirectorySweepIsLinear:
    def test_live_entry_set_is_built_once_per_walk(self, monkeypatch):
        vm = booted()
        vm.run()
        directory = vm.runtime.directory
        chained = sum(stub.chained_to is not None
                      for cache in (directory.bbt_cache, directory.sbt_cache)
                      for translation in cache.translations
                      for stub in translation.exits)
        assert chained > 1          # CHN001 has work to do
        builds = []
        real = rules_module.live_native_entries

        def counting(directory):
            builds.append(1)
            return real(directory)

        monkeypatch.setattr(rules_module, "live_native_entries", counting)
        monkeypatch.setattr(verifier_module, "live_native_entries",
                            counting)
        report = verify_directory(directory)
        assert report.ok and report.translations_checked > 1
        assert len(builds) == 1


class TestRecordFieldTypes:
    """What a record still spells out as JSON numbers must be numbers.

    The test names and ids are those of the v1 suite, where ``position``
    indexed the nine-element micro-op lists; v2 and v3 have no such
    lists, so ``position`` picks one of the places a record keeps an
    integer.
    """

    #: position -> (what it is, path into the record)
    PLACES = {
        1: ("origins run: x86_addr", ("origins", 0, 0)),
        2: ("origins run: count", ("origins", 0, 1)),
        3: ("exit stub: offset", ("exits", 0, 0)),
        4: ("side table: offset", ("side_table", 0, 0)),
        5: ("entry", ("entry",)),
        6: ("origins: count of the first run", ("origins", 0, 1)),
        7: ("origins: count of the last run", ("origins", -1, 1)),
    }

    @classmethod
    def put(cls, record, position, value):
        *path, last = cls.PLACES[position][1]
        holder = record
        for step in path:
            holder = holder[step]
        holder[last] = value

    @pytest.mark.parametrize("position", [1, 2, 3, 4, 5])
    def test_json_booleans_are_not_numbers(self, victim, position):
        # the superblock has no VMCALL: give it a side-table entry
        victim["side_table"] = [[0, victim["entry"]]]
        self.put(victim, position, True)
        self.assert_corrupt(json.loads(json.dumps(victim)))

    @pytest.mark.parametrize("position", [6, 7])
    @pytest.mark.parametrize("junk", [True, 2, -1, "1", [1], 1.0, None])
    def test_flag_fields_are_exactly_zero_or_one(self, victim, position,
                                                  junk):
        """v1 spelled ``fused``/``setflags`` out per micro-op (positions
        6 and 7) and had to police them; in v2 they are single bits of
        ``code`` and cannot be anything but 0 or 1.  The small integers
        a record still spells out are the run counts of ``origins``:
        the same junk must not pass for one (``2`` is a fine count, and
        is corrupt because it no longer covers the code exactly)."""
        assert 2 not in (victim["origins"][0][1], victim["origins"][-1][1])
        self.put(victim, position, junk)
        self.assert_corrupt(json.loads(json.dumps(victim)))

    @staticmethod
    def assert_corrupt(fields):
        record = encode_record(fields)      # only the key is right
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records([record])
        assert report.corrupt == 1 and report.loaded == 0
        assert not vm.runtime.directory.sbt_cache.translations


class TestMicroOpIsStillAValue:
    UOP = MicroOp(UOp.ADD, rd=1, rs1=2, rs2=3, setflags=True,
                  x86_addr=0x400000)

    def test_defaults_keywords_and_positions(self):
        assert MicroOp(UOp.NOP) == MicroOp(UOp.NOP, 0, 0, 0, 0, None,
                                           False, False, None)
        assert self.UOP == MicroOp(UOp.ADD, 1, 2, 3, 0, None, False, True,
                                   0x400000)
        assert MicroOp(UOp.BC, cond=Cond.NE, imm=4).cond is Cond.NE
        with pytest.raises(TypeError):
            MicroOp()
        with pytest.raises(TypeError):
            MicroOp(UOp.NOP, colour=1)

    def test_immutable(self):
        with pytest.raises(FrozenInstanceError):
            self.UOP.rd = 5
        with pytest.raises(FrozenInstanceError):
            del self.UOP.rd
        with pytest.raises((FrozenInstanceError, AttributeError,
                            TypeError)):
            self.UOP.colour = 1
        assert self.UOP.rd == 1

    def test_equal_hashable_replaceable(self):
        twin = MicroOp(UOp.ADD, rd=1, rs1=2, rs2=3, setflags=True,
                       x86_addr=0x400000)
        assert twin == self.UOP and hash(twin) == hash(self.UOP)
        assert len({twin, self.UOP}) == 1
        assert replace(self.UOP, x86_addr=None) != self.UOP
        moved = replace(self.UOP, imm=7, fused=True)
        assert (moved.imm, moved.fused, moved.rd, moved.x86_addr) == \
            (7, True, 1, 0x400000)
        assert self.UOP.with_fused().fused and not self.UOP.fused
        assert copy.deepcopy(self.UOP) == self.UOP
        assert "rd=1" in repr(self.UOP)

    def test_an_instance_is_no_bigger_than_the_generated_dataclass(self):
        @dataclass(frozen=True)
        class Generated:
            op: UOp
            rd: int = 0
            rs1: int = 0
            rs2: int = 0
            imm: int = 0
            cond: Optional[Cond] = None
            fused: bool = False
            setflags: bool = False
            x86_addr: Optional[int] = None

        def bytes_each(cls, count=2000):
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            keep = [cls(UOp.ADD, 1, 2, 3) for _ in range(count)]
            after = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert len(keep) == count
            return (after - before) / count

        assert bytes_each(MicroOp) <= bytes_each(Generated)


# -- a translation that runs off its end ---------------------------------------

def cut_short(record, keep: int):
    """``record`` with its code cut after ``keep`` micro-ops, its exits
    dropped and its origins trimmed to match, re-keyed: a valid record
    of a superblock that ends mid-stream."""
    fields = json.loads(record.text)
    uops = decoded(record)[:keep]
    runs, left = [], keep
    for addr, count in fields["origins"]:
        if left:
            runs.append([addr, min(count, left)])
            left -= runs[-1][1]
    fields.update(code=encode_stream(uops).hex(), origins=runs, exits=[])
    return resealed(fields), uops[-1]


class TestATranslationEndsWhereTheMachineLeavesIt:
    def test_a_block_cut_mid_stream_is_rejected_and_the_boot_is_cold(
            self, records):
        cold = booted()
        output = cold.run().output
        (victim,) = [r for r in records if r["kind"] == "sbt"]
        cut, last = cut_short(victim, 1)
        assert (last.op, last.rd, last.fused) == (UOp.ADD2, 6, False)
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records(
            [cut if record is victim else record for record in records])
        assert (report.verifier_rejected, report.loaded) == \
            (1, len(records) - 1)
        assert vm.run().output == output
        assert vm.state.regs == cold.state.regs

    def test_ctl002_names_the_last_micro_op(self, records):
        cut, _last = cut_short(next(r for r in records
                                    if r["kind"] == "sbt"), 1)
        report = run_rules(VerifyContext.from_code(
            *record_stream(cut),
            translation=materialize(cut, 1).place(
                0x2000_0000, cut["exits"], cut["side_table"])))
        assert [(v.rule_id, v.index) for v in report.violations] == \
            [("CTL002", 0)]


# -- a damaged store counts what it counted -------------------------------------

def damaged_load(damage):
    """The ``LoadReport`` of the LOOP image's records after ``damage``
    (``(vm, records) -> records``) on a fresh VM."""
    source = booted()
    source.run()
    records = capture_translations(source.runtime.directory,
                                   source.state.memory)
    vm = booted()
    load = damage(vm, list(records))
    report = WarmStartLoader(vm.runtime).load_records(load)
    # every counter handed out is held by an installed translation
    held = sorted(t.counter_addr for t in
                  vm.runtime.directory.bbt_cache.translations)
    assert held == list(range(COUNTER_AREA_BASE,
                              vm.runtime.bbt._next_counter, 4))
    return report.to_dict()


def corrupt(vm, records):
    fields = json.loads(records[0].text)
    fields["code"] = "00"       # a field of the superblock layout
    return [dict(records[1]), encode_record(fields)] + records[2:]


def stale(vm, records):
    addr, _hex = records[1]["source"][0]
    vm.state.memory.write(addr, b"\x90")
    return records


def duplicate(vm, records):
    return records + records[:2] + [records[-1]]


def capacity(vm, records):
    cache = vm.runtime.directory.bbt_cache
    cache.capacity = sum(vm.runtime.bbt.derive(r["entry"]).size
                         for r in records if r["kind"] == "bbt") - 1
    return records


def verifier(vm, records):
    *blocks, superblock = records
    fields = json.loads(superblock.text)
    fields["exits"][0][0] += 2                  # off its stub
    return blocks + [encode_record(fields), superblock]


class TestADamagedStoreCountsTheSame:
    """Each store damaged at one stage of the loader: the counts (zeros
    left out) are the ones the loader reported when it gave each record
    a context of its own."""

    @pytest.mark.parametrize("damage,counts", [
        (corrupt, {"attempted": 5, "bbt_loaded": 2, "bytes_loaded": 120,
                   "chains_restored": 1, "corrupt": 2, "dropped": 2,
                   "loaded": 3, "sbt_loaded": 1}),
        (stale, {"attempted": 5, "bbt_loaded": 2, "bytes_loaded": 94,
                 "dropped": 3, "loaded": 2, "stale_source": 3}),
        (duplicate, {"attempted": 8, "bbt_loaded": 4, "bytes_loaded": 268,
                     "chains_restored": 5, "duplicate_skipped": 3, "loaded": 5,
                     "sbt_loaded": 1}),
        (capacity, {"attempted": 5, "bbt_loaded": 3, "bytes_loaded": 220,
                    "capacity_skipped": 1, "chains_restored": 5, "dropped": 1,
                    "loaded": 4, "sbt_loaded": 1}),
        (verifier, {"attempted": 6, "bbt_loaded": 4, "bytes_loaded": 268,
                    "chains_restored": 5, "dropped": 1, "loaded": 5,
                    "sbt_loaded": 1, "verifier_rejected": 1}),
    ], ids=lambda value: getattr(value, "__name__", ""))
    def test_counts(self, damage, counts):
        report = damaged_load(damage)
        assert {key: value for key, value in report.items() if value} \
            == counts
