"""Record layout v2: the encoded stream is the record.

A persisted record carries its micro-ops as ``code`` (hex of the encoded
stream) plus ``origins`` (run-length ``[x86_addr, count]``), and the
micro-op decoder is the only parser of that code.  Pinned here:

* the layout itself, against a checked-in golden record — it cannot
  drift without a ``FORMAT_VERSION`` bump;
* translation -> record -> translation is lossless on every field,
  ``x86_addr`` included, for generated micro-op streams;
* every way ``code``/``origins`` can be damaged is ``corrupt``: counted,
  never installed, never raised;
* a store written in layout v1 reads as empty: the VM boots cold and
  ``fsck`` says why.
"""

import copy
import json
import shutil
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cacheserver import protocol
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.encoding import (
    UopDecodeError,
    decode_uop,
    encode_stream,
    encode_uop,
)
from repro.isa.fusible.opcodes import OP_INFO
from repro.isa.x86lite import assemble
from repro.isa.x86lite.decoder import decode_at
from repro.memory import AddressSpace
from repro.memory.address_space import MemoryError_
from repro.persist import (
    FORMAT_VERSION,
    PersistFormatError,
    RemoteRepository,
    TranslationRepository,
    WarmStartLoader,
    capture_translations,
    config_fingerprint,
    materialize,
    record_key,
    record_stream,
    serialize_translation,
    validate_record,
)
from repro.persist.format import source_matches
from repro.translator.code_cache import ExitStub, Translation
from tests.sbt_oracle import origin_runs
from tests.strategies import uops as any_uop
from tests.test_persist import LOOP

DATA = Path(__file__).parent / "data"
NATIVE = 0x2000_0000

#: a 16-bit parcel (as hex, little-endian) whose opcode number is unassigned
INVALID_PARCEL = next(
    (number << 9).to_bytes(2, "little").hex() for number in range(32)
    if number not in {info.number for info in OP_INFO.values()
                      if info.length == 2})


def booted() -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(LOOP))
    return vm


def rebuilt(record, native_addr=NATIVE) -> Translation:
    """The record as a Translation, the way the loader builds one."""
    code, x86_addrs = record_stream(record)
    translation = materialize(record, native_addr, len(x86_addrs))
    translation.code = code
    translation.counter_addr = record["counter_addr"]
    return translation


def resealed(record):
    """The record re-keyed: only what the key does not protect against
    stands between it and the code cache."""
    record["key"] = record_key(record)
    return record


@pytest.fixture(scope="module")
def records():
    vm = booted()
    vm.run()
    return capture_translations(vm.runtime.directory, vm.state.memory)


@pytest.fixture
def victim(records):
    return copy.deepcopy(records[0])


def assert_corrupt(record):
    vm = booted()
    report = WarmStartLoader(vm.runtime).load_records([record])
    assert (report.corrupt, report.loaded, report.dropped) == (1, 0, 1)
    directory = vm.runtime.directory
    assert not directory.bbt_cache.translations
    assert not directory.sbt_cache.translations
    assert vm.run().exit_code == 0     # and the VM translates it itself


class TestGoldenRecord:
    """``tests/data/golden_record_v2.json``: a BBT block with a profiling
    prologue and a fused superblock, as PR 15 wrote them."""

    def test_serialize_reproduces_the_golden_bytes(self):
        text = (DATA / "golden_record_v2.json").read_text()
        golden = json.loads(text)
        assert [r["kind"] for r in golden] == ["bbt", "sbt"]
        assert golden[0]["counter_addr"] is not None
        assert golden[1]["fused_pairs"] > 0
        memory = booted().state.memory
        again = []
        for record in golden:
            validate_record(record)
            assert record["format"] == FORMAT_VERSION == 2
            again.append(serialize_translation(rebuilt(record), memory))
        assert json.dumps(again, indent=1, sort_keys=True) + "\n" == text

    def test_a_live_capture_has_the_golden_layout(self, records):
        golden = json.loads((DATA / "golden_record_v2.json").read_text())
        for record in records:
            assert sorted(record) == sorted(golden[0])
            assert "uops" not in record


class TestRoundTrip:
    @staticmethod
    def instruction_addrs(memory, count=5):
        addrs, addr = [], assemble(LOOP).entry
        for _ in range(count):
            addrs.append(addr)
            addr = decode_at(memory, addr).next_addr
        return addrs

    @given(stream=st.lists(st.tuples(any_uop, st.integers(0, 5)),
                           min_size=1, max_size=24),
           kind=st.sampled_from(["bbt", "sbt"]),
           native=st.sampled_from([NATIVE, 0x2800_0040]))
    @settings(max_examples=150, deadline=None)
    def test_every_field_survives(self, stream, kind, native):
        memory = booted().state.memory
        addrs = [None] + self.instruction_addrs(memory)
        # what the bytes can hold of each micro-op, plus its x86_addr
        uops = [decode_uop(encode_uop(uop), 0, addrs[pick])
                for uop, pick in stream]
        original = Translation(
            entry=addrs[1], kind=kind, native_addr=NATIVE,
            x86_addrs=addrs[1:3], instr_count=2, uop_count=len(uops),
            fused_pairs=sum(uop.fused for uop in uops),
            code=encode_stream(uops), origins=origin_runs(uops))
        original.exits.append(ExitStub(stub_addr=NATIVE + 8, kind="taken",
                                       x86_target=addrs[2]))
        original.exits.append(ExitStub(stub_addr=NATIVE + 20,
                                       kind="indirect", x86_target=None))
        original.side_table[NATIVE + 4] = addrs[1]

        record = json.loads(json.dumps(
            serialize_translation(original, memory)))
        validate_record(record)
        back = rebuilt(record, native)
        assert back.uops == uops
        assert [uop.x86_addr for uop in back.uops] == \
            [uop.x86_addr for uop in uops]
        assert (back.entry, back.kind, back.x86_addrs, back.instr_count,
                back.uop_count, back.fused_pairs) == \
            (original.entry, kind, original.x86_addrs, 2, len(uops),
             original.fused_pairs)
        assert [(stub.stub_addr - native, stub.kind, stub.x86_target)
                for stub in back.exits] == \
            [(8, "taken", addrs[2]), (20, "indirect", None)]
        assert back.side_table == {native + 4: addrs[1]}
        # and the record of the rebuilt translation is the same record
        assert serialize_translation(back, memory) == record


class TestDamagedCodeIsCorrupt:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_flipped_hex_digit_without_rekeying(self, records, data):
        record = copy.deepcopy(data.draw(st.sampled_from(records)))
        code = record["code"]
        position = data.draw(st.integers(0, len(code) - 1))
        other = data.draw(st.sampled_from(
            [digit for digit in "0123456789abcdef"
             if digit != code[position]]))
        record["code"] = code[:position] + other + code[position + 1:]
        with pytest.raises(PersistFormatError):
            validate_record(record)
        assert_corrupt(record)

    @pytest.mark.parametrize("damage", [
        lambda code: code[:-1],                 # odd length
        lambda code: "zz" + code[2:],           # not hex
        lambda code: code[:-4],                 # last micro-op cut in two
        lambda code: INVALID_PARCEL + code[4:],  # no such opcode
        lambda code: "",
        lambda code: None,
        lambda code: [code],
    ], ids=["odd-length", "non-hex", "truncated", "undecodable", "empty",
            "null", "list"])
    def test_rekeyed_damage(self, victim, damage):
        victim["code"] = damage(victim["code"])
        assert_corrupt(resealed(victim))

    def test_the_invalid_parcel_is_invalid(self):
        with pytest.raises(UopDecodeError, match="invalid short opcode"):
            decode_uop(bytes.fromhex(INVALID_PARCEL))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_origins_must_cover_the_code_exactly(self, victim, delta):
        victim["origins"][-1][1] += delta
        assert_corrupt(resealed(victim))

    def test_origins_may_not_claim_more_than_the_code_could_hold(
            self, victim):
        victim["origins"][0][1] = 10 ** 12     # never expanded
        with pytest.raises(PersistFormatError):
            validate_record(resealed(victim))
        assert_corrupt(victim)

    @pytest.mark.parametrize("origins", [
        None, [], "runs", [[None]], [[0, 1, 2]], [None], [[1.5, 20]],
        [["0x400000", 20]]])
    def test_malformed_origins(self, victim, origins):
        victim["origins"] = origins
        assert_corrupt(resealed(victim))

    def test_json_booleans_are_not_counts(self, victim):
        victim["origins"] = [[victim["origins"][0][0], True]]
        assert_corrupt(resealed(json.loads(json.dumps(victim))))

    @pytest.mark.parametrize("field", ["exits", "side_table", "source"])
    @pytest.mark.parametrize("junk", [None, 5, [[0, ["taken"], None]]])
    def test_malformed_anchor_lists_do_not_raise(self, victim, field,
                                                  junk):
        victim[field] = junk
        assert_corrupt(resealed(victim))


# -- the source fingerprint: one read per contiguous run ---------------------

TEXT = 0x40_0000


def per_entry(record, memory) -> bool:
    """``source_matches`` as it compared before: one read an entry."""
    try:
        for addr, hexbytes in record["source"]:
            data = bytes.fromhex(hexbytes)
            if memory.read(addr, len(data)) != data:
                return False
    except (ValueError, MemoryError_):
        return False
    return True


class CountingMemory(AddressSpace):
    def __init__(self):
        super().__init__()
        self.reads = []

    def read(self, addr, size):
        self.reads.append((addr, size))
        return super().read(addr, size)


@pytest.fixture
def text():
    memory = CountingMemory()
    memory.write(TEXT, bytes(range(1, 65)))
    return memory


def entries(*spans):
    """``source`` entries holding what ``bytes(range(1, 65))`` at TEXT
    holds over each ``(offset, length)`` span."""
    return [[TEXT + offset,
             bytes(range(1 + offset, 1 + offset + length)).hex()]
            for offset, length in spans]


class TestSourceFingerprint:
    def test_one_read_per_contiguous_run(self, text):
        source = entries((0, 2), (2, 5), (7, 1), (20, 3), (23, 3), (40, 6))
        assert source_matches({"source": source}, text)
        assert text.reads == [(TEXT, 8), (TEXT + 20, 6), (TEXT + 40, 6)]

    def test_a_loaded_record_is_read_once_per_run(self, records):
        vm = booted()
        for record in records:
            assert source_matches(record, vm.state.memory)
            source = record["source"]
            runs = 1 + sum(
                addr != before + len(text) // 2 for (before, text), (addr, _)
                in zip(source, source[1:]))
            memory = CountingMemory()
            source_matches(record, memory)
            assert len(memory.reads) == runs <= len(source)

    @pytest.mark.parametrize("stale_at", [0, 3, 6, 7])
    def test_a_stale_byte_anywhere_in_a_run(self, text, stale_at):
        source = entries((0, 2), (2, 5), (7, 1))
        text.write_u8(TEXT + stale_at, 0xEE)
        assert not source_matches({"source": source}, text)

    def test_entries_that_are_not_adjacent_start_runs_of_their_own(
            self, text):
        # a gap, an overlap and an entry out of order: each compares
        # against its own address, as it did one read an entry
        source = entries((8, 4), (16, 4), (18, 4), (0, 4))
        assert source_matches({"source": source}, text)
        assert text.reads == [(TEXT + 8, 4), (TEXT + 16, 4),
                              (TEXT + 18, 4), (TEXT, 4)]
        text.write_u8(TEXT + 1, 0xEE)       # only the last entry sees it
        assert not source_matches({"source": source}, text)

    def test_a_run_that_leaves_mapped_memory(self, text):
        # an unmapped page reads as zeros: stale unless zeros were saved
        edge = [[0x40_0FFE, "0000"], [0x40_1000, "0000"]]
        assert source_matches({"source": edge}, text)
        edge[1][1] = "9000"
        assert not source_matches({"source": edge}, text)
        # the end of the address space raises MemoryError_: stale.  (The
        # one verdict that moved: read on its own, an entry *at* 2**32
        # wrapped to address 0 and matched the zeros there.)
        top = [[0xFFFF_FFFC, "0000"], [0xFFFF_FFFE, "0000"]]
        assert source_matches({"source": top}, text)
        top.append([0x1_0000_0000, "00"])
        with pytest.raises(MemoryError_):
            text.read(0xFFFF_FFFC, 5)
        assert not source_matches({"source": top}, text)
        assert per_entry({"source": top}, text)

    @pytest.mark.parametrize("bad", ["0", "zz", "0102 ", "0x01"])
    def test_bad_hex_is_stale_wherever_it_sits(self, text, bad):
        good = entries((0, 2), (2, 2))
        for position in range(3):
            source = good[:position] + [[TEXT + 4, bad]] + good[position:]
            assert not source_matches({"source": source}, text)
            assert not per_entry({"source": source}, text)

    @given(spans=st.lists(st.tuples(st.integers(0, 56), st.integers(0, 8)),
                          max_size=8),
           contiguous=st.lists(st.integers(0, 8), max_size=8),
           stale=st.one_of(st.none(), st.integers(0, 63)))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_as_one_read_per_entry(self, spans, contiguous,
                                                stale):
        memory = AddressSpace()
        memory.write(TEXT, bytes(range(1, 65)))
        offset = 0
        for length in contiguous:       # a run, then arbitrary spans
            spans.append((offset, length))
            offset += length
        record = {"source": entries(*spans)}
        if stale is not None:
            memory.write_u8(TEXT + stale, 0xEE)
        assert source_matches(record, memory) == per_entry(record, memory)


class TestNonObjectRecords:
    """A record list holding something that is not an object used to
    raise ``AttributeError`` out of ``vm.warm_start``."""

    JUNK = [None, "junk", 7, [1, 2], True]
    #: what a server may ship as stored objects: things that are not
    #: text, text that is not a JSON object, an object under another
    #: name -- dropped by ``pulled_records`` -- and two objects under
    #: their own names that are no records: the loader's finding
    SHIPPED = JUNK + ["{not json", "null", "[1, 2]", '{"key": "other"}',
                      '{"key": "k9"}', '{"key": "k10", "kind": 7}']

    def test_loader_counts_them_corrupt(self, records):
        vm = booted()
        report = WarmStartLoader(vm.runtime).load_records(
            self.JUNK + copy.deepcopy(records))
        assert report.corrupt == len(self.JUNK)
        assert report.loaded == len(records)
        assert report.attempted == len(self.JUNK) + len(records)

    def test_traced_vm_reports_them(self):
        vm = CoDesignedVM(vm_soft().with_(trace=True), hot_threshold=50)
        vm.load(assemble(LOOP))
        report = WarmStartLoader(vm.runtime).load_records([None])
        assert report.corrupt == 1
        assert any(event.name == "warmstart.reject"
                   for event in vm.tracer.events)

    def test_a_server_cannot_crash_the_vm(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        # closing a listener does not wake an accept() blocked in another
        # thread: poll, so the thread sees ``stop`` well inside the join
        listener.settimeout(0.05)
        stop = threading.Event()

        def serve():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                with conn:
                    conn.settimeout(5.0)
                    try:
                        while True:
                            request = protocol.recv_message(conn)
                            count = len(self.SHIPPED)
                            if request["op"] == "pull":
                                answer = protocol.ok(
                                    entries=[f"k{i}" for i in range(count)],
                                    objects=self.SHIPPED)
                            else:
                                answer = protocol.ok(entries=count)
                            protocol.send_message(conn, answer)
                    except (OSError, protocol.ProtocolError):
                        pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()
            client = RemoteRepository(f"{host}:{port}", local=None,
                                      retries=0, timeout=2.0)
            vm = booted()
            report = vm.warm_start(client)
            client.close()
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert client.remote_stats.records_pulled == 2
        assert (report.corrupt, report.loaded) == (2, 0)
        assert report.missing_objects == len(self.SHIPPED) - 2
        result = vm.run()
        assert result.exit_code == 0 and result.blocks_translated > 0


def forge_v2_manifest(store, vm) -> int:
    """Re-issue the v1 store's manifest under the current format and
    ``vm``'s fingerprints; returns how many (v1) objects it lists."""
    old = next((store / "manifests").glob("*.json"))
    manifest = json.loads(old.read_text())
    manifest["format"] = FORMAT_VERSION
    manifest["config_fingerprint"] = config_fingerprint(vm.config)
    old.unlink()
    (store / "manifests" / (
        f"{manifest['config_fingerprint']}__"
        f"{manifest['image_fingerprint']}.json")).write_text(
            json.dumps(manifest))
    return len(manifest["entries"])


class TestV1Store:
    """``tests/data/v1_store``: the LOOP program's translations as the
    PR 14 code saved them (format 1, nine-field micro-op lists)."""

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(DATA / "v1_store", tmp_path / "store")
        return tmp_path / "store"

    def test_it_is_the_old_layout(self, store):
        for path in (store / "objects").glob("*.json"):
            record = json.loads(path.read_text())
            assert record["format"] == 1 and "uops" in record
            with pytest.raises(PersistFormatError):
                validate_record(record)

    def test_boots_cold_and_fsck_says_why(self, store):
        repo = TranslationRepository(store)
        vm = booted()
        report = vm.warm_start(repo)
        assert (report.loaded, report.attempted) == (0, 0)
        result = vm.run()
        assert result.exit_code == 0 and result.blocks_translated > 0

        found = TranslationRepository(store).fsck()
        assert not found.ok
        assert found.corrupt_objects == found.objects_checked == 5
        assert found.corrupt_manifests == 1
        assert found.meta_corrupt
        assert "format version 1 != 2" in found.format()

    def test_forged_v2_manifest_still_loads_nothing(self, store):
        """Even when a manifest of the current version and name points
        at them, v1 objects are never installed: the store serves what
        it holds and the loader finds every one corrupt."""
        vm = booted()
        listed = forge_v2_manifest(store, vm)
        report = vm.warm_start(TranslationRepository(store))
        assert report.loaded == report.missing_objects == 0
        assert report.corrupt == listed == 5
        assert vm.run().blocks_translated > 0

    def test_repairing_fsck_leaves_a_usable_store(self, store):
        repo = TranslationRepository(store)
        repo.fsck(repair=True)
        assert repo.fsck().ok
        cold = booted()
        cold.run()
        assert cold.save_translations(repo) > 0
        warm = booted()
        report = warm.warm_start(repo)
        assert report.loaded > 0 and report.dropped == 0
        assert warm.run().blocks_translated == 0
