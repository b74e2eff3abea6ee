"""What the warm install admits: translations the VM built itself.

A record holds no code (layout 6): the loader rebuilds every
translation with the VM's own translators, so nothing but the cold
path's bytes reaches the code cache.  These tests pin the properties of
that install:

* a clean superblock record loads;
* each distinct word is decoded at most once per VM; the bytes the
  code cache receives are the ones the install-time sanitizer screens
  and the machine decodes, and a superblock's are the cold VM's own;
* the SBT's own stream reads canonically and passes the rule-pack;
* numbers a record spells out in JSON are numbers: booleans and other
  junk never reach the loader's rebuild (``corrupt``);
* ``MicroOp`` under its hand-written constructor is the value type it
  was;
* a superblock cut short so that it ends in a plain ALU micro-op (the
  LOOP superblock at 0x40000a after its first micro-op, an ADD2) breaks
  CTL002, and no record can make the VM run it;
* a store damaged at one stage (corrupt, stale, duplicate, capacity,
  the install gate) counts what it counted, and every counter handed
  out is held by an installed translation.
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
from repro.faults.plane import injecting
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
    WarmStartLoader,
    capture_translations,
    encode_record,
)
from repro.translator.bbt import COUNTER_AREA_BASE
from repro.verify import sanitizer, verify_directory
from repro.verify.rules import VerifyContext
from repro.verify.verifier import run_rules
from tests.stored import translation_stream, with_stored_code
from tests.test_persist import LOOP
from tests.test_word_screen import Rejecting


def booted(source=LOOP) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(source))
    return vm


@pytest.fixture(scope="module")
def cold():
    vm = booted()
    vm.run()
    return vm


@pytest.fixture(scope="module")
def records(cold):
    return capture_translations(cold.runtime.directory, cold.state.memory)


@pytest.fixture(scope="module")
def superblock(cold):
    """The LOOP superblock as the cold VM installed it: the fused
    ADD2/DECF pair, the BC out of the loop, the JMP back and the exit
    stub (LUI/ORI to R29, VMEXIT)."""
    (translation,) = cold.runtime.directory.sbt_cache.translations
    assert [uop.op for uop in translation.uops] == [
        UOp.ADD2, UOp.DECF, UOp.BC, UOp.JMP, UOp.LUI, UOp.ORI, UOp.VMEXIT]
    return translation


@pytest.fixture
def victim(records):
    """The fields of the LOOP superblock's record, as an editable dict."""
    (record,) = [r for r in records if r["kind"] == "sbt"]
    return json.loads(record.text)


def resealed(fields):
    """The fields as a record with its content key recomputed."""
    return encode_record(fields)


class TestViolatingRecordsNeverRun:
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


def recorded_installs(monkeypatch, directory):
    """Record ``(data, translation)`` at every install."""
    installs = []
    real_install = directory.install

    def recording_install(data, translation, *placement):
        installs.append((data, translation))
        real_install(data, translation, *placement)

    monkeypatch.setattr(directory, "install", recording_install)
    return installs


class TestOneEncodePerMicroOp:
    def test_installed_bytes_are_the_bytes_the_verifier_saw(
            self, records, superblock, monkeypatch):
        screened = []
        real_check = sanitizer.check_install

        def checking(directory, translation):
            screened.append(translation.code)
            return real_check(directory, translation)

        monkeypatch.setattr("repro.translator.code_cache.check_install",
                            checking)
        vm = booted()
        directory = vm.runtime.directory
        installs = recorded_installs(monkeypatch, directory)
        vm.runtime.enable_chaining = False
        report = WarmStartLoader(vm.runtime).load_records(records)
        assert report.loaded == len(records) > 1
        # the bytes handed to the code cache are the sanitizer's, and a
        # superblock's are the ones the cold VM built
        assert [data for data, _translation in installs] == screened
        (built,) = [data for data, translation in installs
                    if translation.kind == "sbt"]
        assert built == superblock.code
        for data, translation in installs:
            # ... and they are what the machine will decode (but for
            # the redirect JMP at the entry of a superseded block)
            skip = 4 if directory.is_redirected(translation.native_addr) \
                else 0
            assert vm.state.memory.read(translation.native_addr + skip,
                                        len(data) - skip) == data[skip:]
        assert verify_directory(directory).ok

    def test_at_most_one_decode_per_distinct_word_per_vm(
            self, records, monkeypatch):
        """Loader, translators, verifier and machine share the VM's word
        table: an install and the run behind it decode each distinct
        word once, however many micro-ops hold it -- the derived
        blocks', the rebuilt superblock's and what chaining patches into
        the code cache."""
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        vm = booted()
        decodes = counted(monkeypatch, "decode_uop",
                          (encoding_module, rules_module, machine_module))
        report = WarmStartLoader(vm.runtime).load_records(records)
        assert report.loaded == len(records) > 1
        words = vm.runtime.machine.words
        loaded = len(decodes)
        assert loaded == len(words)
        vm.run()
        # every decode made is an entry's
        assert len(decodes) == len(words) >= loaded
        assert {id(uop) for uop in decodes} == \
            {id(word.uop) for word in words.values()}
        # a second VM shares nothing with the first
        other = booted()
        assert not other.runtime.machine.words
        WarmStartLoader(other.runtime).load_records(records)
        assert len(decodes) == len(words) + loaded


class TestRoundTripByConstruction:
    """A word is its own encoding exactly when no don't-care bit of its
    form is set (``is_canonical``), and a stream holding any other word
    does not read."""

    def test_every_decoded_micro_op_is_proven(self, superblock):
        ctx = VerifyContext.from_code(*translation_stream(superblock))
        assert all(word.canonical for word in ctx.words)
        assert encode_stream(ctx.uops) == superblock.code
        assert run_rules(ctx).ok


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
    """What a record spells out as JSON numbers must be numbers.

    The test names and ids are those of the v1 suite, where ``position``
    indexed the nine-element micro-op lists; later layouts have no such
    lists, so ``position`` picks one of the places a record keeps an
    integer: in layout 6, its entry, its path, its source runs' addresses
    and its format.
    """

    #: position -> (what it is, path into the record)
    PLACES = {
        1: ("path: the head", ("x86_addrs", 0)),
        2: ("path: the last entry", ("x86_addrs", -1)),
        3: ("source run: address", ("source", 0, 0)),
        4: ("format", ("format",)),
        5: ("entry", ("entry",)),
        6: ("path: the head", ("x86_addrs", 0)),
        7: ("path: the last entry", ("x86_addrs", -1)),
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
        self.put(victim, position, True)
        self.assert_corrupt(json.loads(json.dumps(victim)))

    @pytest.mark.parametrize("position", [6, 7])
    @pytest.mark.parametrize("junk", [True, 2, -1, "1", [1], 1.0, None])
    def test_flag_fields_are_exactly_zero_or_one(self, victim, position,
                                                  junk):
        """v1 spelled ``fused``/``setflags`` out per micro-op (positions
        6 and 7) and had to police them; since v2 they are single bits
        of the code, and since v6 no record holds code.  The integers a
        record's path spells out are block entries: the same junk must
        not pass for one (``2`` is a fine integer, and is corrupt
        because memory forms no such path)."""
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

def first_micro_op(superblock) -> bytes:
    """The bytes of the superblock's first micro-op."""
    return superblock.code[:superblock.uops[0].length]


class TestATranslationEndsWhereTheMachineLeavesIt:
    def test_a_block_cut_mid_stream_is_rejected_and_the_boot_is_cold(
            self, records, victim, superblock, cold):
        """The superblock's code cut after its first micro-op, carried
        by its record: refused, and the warm run is the cold one."""
        cut = resealed(with_stored_code(victim, superblock,
                                        first_micro_op(superblock)))
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records(
            [cut if record["kind"] == "sbt" else record
             for record in records])
        assert (report.corrupt, report.loaded) == (1, len(records) - 1)
        assert vm.run().output == cold.state.output
        assert vm.state.regs == cold.state.regs

    def test_ctl002_names_the_last_micro_op(self, superblock):
        code = first_micro_op(superblock)
        (last,) = decode_stream(code)
        assert (last.op, last.rd, last.fused) == (UOp.ADD2, 6, False)
        cut = replace(superblock, code=code, exits=[], side_table={},
                      origins=[[superblock.entry, 1]])
        report = run_rules(VerifyContext.from_code(
            code, cut.origins, translation=cut))
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
    vm.gate = None
    load = damage(vm, list(records))
    with injecting(vm.gate):
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
    # the install gate refuses the first of two copies of the
    # superblock; the second installs
    *blocks, superblock = records
    vm.gate = Rejecting({superblock["entry"]}, times=1, kind="sbt")
    return blocks + [superblock, superblock]


class TestADamagedStoreCountsTheSame:
    """Each store damaged at one stage of the loader: the counts (zeros
    left out) are the ones the loader reported when it screened each
    superblock record's code in a context of its own."""

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
