"""The warm-install screen: one walk per record, nothing weakened.

A persisted record is screened by the full rule-pack before it is
installed.  These tests pin the three properties of that screen:

* a record that breaks an invariant is ``verifier_rejected`` — not
  installed, not executed — for each rule the walk now shares work
  between (ENC001, ENC002, SCR001, PRS001, FUS002);
* each micro-op is encoded exactly once per install, and the bytes
  written to the code cache are the bytes the verifier checked;
* records whose fields are JSON booleans, or whose flag fields are
  anything but 0/1, never reach the loader's rebuild (``corrupt``).
"""

import copy
import json

import pytest

import repro.isa.fusible.encoding as encoding_module
import repro.translator.code_cache as code_cache_module
import repro.verify.rules as rules_module
import repro.verify.verifier as verifier_module
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.x86lite import assemble
from repro.persist import (
    PersistFormatError,
    WarmStartLoader,
    capture_translations,
    materialize,
    record_key,
    validate_record,
)
from repro.verify import sanitizer, verify_directory, verify_translation
from tests.test_persist import LOOP

# field positions of a micro-op inside a record (format._uop_to_list)
RD, RS1, RS2, IMM, COND, FUSED, SETFLAGS = 1, 2, 3, 4, 5, 6, 7

#: positions inside the BBT profiling prologue (emit.profile_prologue)
PROLOGUE_LDW, PROLOGUE_WRFLG = 3, 8


def booted(source=LOOP) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(source))
    return vm


@pytest.fixture(scope="module")
def records():
    vm = booted()
    vm.run()
    return capture_translations(vm.runtime.directory, vm.state.memory)


@pytest.fixture
def victim(records):
    """A BBT record with a profiling prologue whose body sets flags."""
    for record in records:
        if record["kind"] == "bbt" and record["counter_addr"] is not None \
                and any(uop[SETFLAGS] for uop in record["uops"][9:]):
            return copy.deepcopy(record)
    raise AssertionError("no suitable record")


def resealed(record):
    """The record with its content key recomputed: structurally valid,
    so only the verifier stands between it and the code cache."""
    record["key"] = record_key(record)
    validate_record(record)
    return record


def break_enc001(record):
    record["uops"][PROLOGUE_LDW][IMM] = 5000        # past imm13


def break_enc002(record):
    record["uops"][-1][RS2] = 7      # VMEXIT's form carries no rs2


def break_scr001(record):
    record["uops"][PROLOGUE_LDW][RS1] = 20          # r20: never defined


def break_prs001(record):
    # the save window opened by the prologue's RDFLG never closes, so
    # the body's flag writes reach the exit as housekeeping
    wrflg = record["uops"][PROLOGUE_WRFLG]
    assert wrflg[0] == "wrflg"
    record["uops"][PROLOGUE_WRFLG] = ["nop", 0, 0, 0, 0, None, 0, 0,
                                      wrflg[8]]


def break_fus002(record):
    record["uops"][-1][FUSED] = 1    # a head with no successor


BREAKS = {"ENC001": break_enc001, "ENC002": break_enc002,
          "SCR001": break_scr001, "PRS001": break_prs001,
          "FUS002": break_fus002}


class TestViolatingRecordsNeverRun:
    @pytest.mark.parametrize("rule", sorted(BREAKS))
    def test_record_is_verifier_rejected(self, rule, victim):
        BREAKS[rule](victim)
        record = resealed(victim)
        vm = booted()
        directory = vm.runtime.directory
        # the record does break the rule it is meant to break
        found = verify_translation(
            materialize(record, directory.bbt_cache.reserve()))
        assert rule in {violation.rule_id for violation in found.violations}

        report = WarmStartLoader(vm.runtime).load_records([record])
        assert report.verifier_rejected == 1
        assert report.loaded == 0 and report.dropped == 1
        # not installed ...
        assert directory.lookup(record["entry"]) is None
        assert directory.bbt_cache.used_bytes == 0
        assert not directory.bbt_cache.translations
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
        report = WarmStartLoader(vm.runtime).load_records([victim])
        assert (report.loaded, report.dropped) == (1, 0)


class TestOneEncodePerMicroOp:
    def test_installed_bytes_are_the_bytes_the_verifier_saw(
            self, records, monkeypatch):
        # the autouse sanitizer would verify (and so encode) each
        # install a second time; this test counts the loader's own work
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        real_encode = encoding_module.encode_uop
        encoded = []

        def counting_encode(uop):
            data = real_encode(uop)
            encoded.append(data)
            return data

        for module in (encoding_module, rules_module, code_cache_module):
            monkeypatch.setattr(module, "encode_uop", counting_encode)

        vm = booted()
        directory = vm.runtime.directory
        installs = []
        real_install = directory.install

        def recording_install(data, translation):
            installs.append((len(encoded), data, translation))
            real_install(data, translation)

        monkeypatch.setattr(directory, "install", recording_install)
        bbt_records = [r for r in records if r["kind"] == "bbt"]
        report = WarmStartLoader(vm.runtime, rechain=False).load_records(
            bbt_records)
        assert report.loaded == len(bbt_records) > 1

        # one encode_uop call per micro-op per install, nothing else
        assert len(encoded) == sum(len(r["uops"]) for r in bbt_records)
        seen = 0
        for calls_so_far, data, translation in installs:
            # the bytes handed to the code cache are the verifier's ...
            assert data == b"".join(encoded[seen:calls_so_far])
            seen = calls_so_far
            # ... and they are what the machine will decode
            assert vm.state.memory.read(translation.native_addr,
                                        len(data)) == data
        assert verify_directory(directory).ok


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
    @pytest.mark.parametrize("position", [RD, RS1, RS2, IMM, COND])
    def test_json_booleans_are_not_numbers(self, victim, position):
        uop = next(u for u in victim["uops"]
                   if position != COND or u[COND] is not None)
        uop[position] = True
        self.assert_corrupt(json.loads(json.dumps(victim)))

    @pytest.mark.parametrize("position", [FUSED, SETFLAGS])
    @pytest.mark.parametrize("junk", [True, 2, -1, "1", [1], 1.0, None])
    def test_flag_fields_are_exactly_zero_or_one(self, victim, position,
                                                  junk):
        victim["uops"][0][position] = junk
        self.assert_corrupt(json.loads(json.dumps(victim)))

    @staticmethod
    def assert_corrupt(record):
        record = resealed(record)    # passes structural validation
        with pytest.raises(PersistFormatError):
            materialize(record, 0x2000_0000)
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records([record])
        assert report.corrupt == 1 and report.loaded == 0
        assert vm.runtime.directory.lookup(record["entry"]) is None
