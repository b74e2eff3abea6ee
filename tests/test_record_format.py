"""Record layout v6: a record is its stored text, and holds no code.

A BBT record is a block's entry and the x86 bytes it was made from
(``source``); the loader derives the block.  An SBT record adds its
path: its blocks' entries (``x86_addrs``) and whether the trace closes
on its head (``loops``); the loader re-forms the trace along that path
and builds it with the VM's own SBT.  A record's text is written once,
at capture, and its key is the SHA-256 of that text minus the key
member.  Pinned here:

* the layout itself, against a checked-in golden record of each kind --
  it cannot drift without a ``FORMAT_VERSION`` bump;
* superblock -> record -> translation is lossless on every field,
  ``x86_addr`` included, for the superblocks of generated programs;
* every way a record can be damaged is ``corrupt`` (or, where its text
  no longer parses under its key, a missing object): counted, never
  installed, never raised — every field of the wrong JSON type, a path
  memory does not form, code carried in any shape, every one-byte flip
  and every truncation of the golden texts;
* a store written in layout v1, v2, v3, v4 or v5 reads as empty: the
  VM boots cold and ``fsck`` says why.
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
from repro.core.config import interp_sbt, vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.encoding import UopDecodeError, decode_uop
from repro.isa.fusible.opcodes import OP_INFO
from repro.isa.x86lite import assemble
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
    encode_record,
    parse_record,
    serialize_translation,
    validate_record,
)
from repro.persist.format import source_matches
from repro.persist.remote import pulled_records
from repro.translator.code_cache import Translation
from tests.stored import stored_texts
from tests.test_persist import LOOP
from tests.test_random_branchy import branchy_program
from tests.test_vm_end_to_end import random_loop_program

DATA = Path(__file__).parent / "data"

#: a 16-bit parcel (as hex, little-endian) whose opcode number is unassigned
INVALID_PARCEL = next(
    (number << 9).to_bytes(2, "little").hex() for number in range(32)
    if number not in {info.number for info in OP_INFO.values()
                      if info.length == 2})


def booted() -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(LOOP))
    return vm


def rebuilt(record, vm=None) -> Translation:
    """An SBT record as the loader installs it into ``vm`` (a fresh LOOP
    VM when left out): re-formed along its path by the VM's own SBT."""
    report = WarmStartLoader((vm or booted()).runtime).load_records([record])
    assert report.sbt_loaded == 1
    return report.installed[0]


def fields_of(record) -> dict:
    """A record's fields as a fresh, editable dict: its text parsed."""
    return json.loads(record.text)


def resealed(fields):
    """The fields re-keyed: only what the key does not protect against
    stands between them and the code cache."""
    return encode_record(fields)


def unsealed(fields):
    """The fields stored as text under the key they carry, whatever it
    is: damage the key was not recomputed for."""
    return parse_record(json.dumps(fields, sort_keys=True,
                                   separators=(",", ":")))


def golden_texts():
    """The stored texts of ``tests/data/golden_record_v6.json``: one a
    line between the brackets of a JSON array."""
    return [line.rstrip(",") for line in
            (DATA / "golden_record_v6.json").read_text().splitlines()[1:-1]]


@pytest.fixture(scope="module")
def records():
    vm = booted()
    vm.run()
    return capture_translations(vm.runtime.directory, vm.state.memory)


@pytest.fixture
def victim(records):
    """The fields of the LOOP superblock, editable."""
    return fields_of(next(r for r in records if r["kind"] == "sbt"))


@pytest.fixture(scope="module")
def stored_code(records):
    """The hex of the LOOP superblock's code: what layout 5 stored."""
    (superblock,) = (record for record in records if record["kind"] == "sbt")
    return rebuilt(superblock).code.hex()


def assert_corrupt(record):
    vm = booted()
    report = WarmStartLoader(vm.runtime).load_records([record])
    assert (report.corrupt, report.loaded, report.dropped) == (1, 0, 1)
    directory = vm.runtime.directory
    assert not directory.bbt_cache.translations
    assert not directory.sbt_cache.translations
    assert vm.run().exit_code == 0     # and the VM translates it itself


class TestGoldenRecord:
    """``tests/data/golden_record_v6.json``: the stored texts of a
    profiled BBT block and of a fused superblock that loops."""

    def test_serialize_reproduces_the_golden_bytes(self):
        texts = golden_texts()
        golden = [parse_record(text) for text in texts]
        assert [r["kind"] for r in golden] == ["bbt", "sbt"]
        vm = booted()
        bbt = vm.runtime.bbt
        block = bbt.install(bbt.derive(golden[0]["entry"]))
        superblock = rebuilt(golden[1], vm)
        assert superblock.fused_pairs > 0 and superblock.loops
        for record, text, translation in zip(golden, texts,
                                             [block, superblock]):
            validate_record(record)
            assert record["format"] == FORMAT_VERSION == 6
            again = serialize_translation(translation, vm.state.memory)
            assert again.text == text and again == record

    def test_a_live_capture_has_the_golden_layout(self, records):
        golden = {record["kind"]: record for record in
                  map(json.loads, golden_texts())}
        for record in records:
            assert sorted(record) == sorted(golden[record["kind"]])
            assert "uops" not in record and "counter_addr" not in record
            # the text is the one spelling: compact, keys sorted
            assert record.text == json.dumps(
                fields_of(record), sort_keys=True, separators=(",", ":"))


def summary(t: Translation):
    """Every field of a translation but where it sits: its exits and
    side table as offsets from its native address."""
    return (t.entry, t.kind, t.x86_addrs, t.instr_count, t.uop_count,
            t.fused_pairs, t.loops, t.code, t.origins, t.source,
            [(stub.stub_addr - t.native_addr, stub.kind, stub.x86_target)
             for stub in t.exits],
            {addr - t.native_addr: x86_addr
             for addr, x86_addr in t.side_table.items()})


class TestRoundTrip:
    @given(source=st.one_of(branchy_program(), random_loop_program()))
    @settings(max_examples=20, deadline=None)
    def test_every_field_survives(self, source):
        """Each superblock of a generated program, serialized and
        rebuilt from its record in a fresh VM, is the cold one on every
        field; the rebuilt translation's record is the same text."""
        image = assemble(source)
        cold = CoDesignedVM(interp_sbt(), hot_threshold=2)
        cold.load(image)
        cold.run()
        memory = cold.state.memory
        warm = CoDesignedVM(interp_sbt(), hot_threshold=2)
        warm.load(image)
        for original in cold.runtime.directory.sbt_cache.translations:
            record = parse_record(
                serialize_translation(original, memory).text)
            validate_record(record)
            back = rebuilt(record, warm)
            assert summary(back) == summary(original)
            assert serialize_translation(back, memory).text == record.text


class TestDamagedCodeIsCorrupt:
    """What a record says of its code -- in layout 6 its source and its
    path, and any code it smuggles in -- damaged is ``corrupt``."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_flipped_hex_digit_without_rekeying(self, records, data):
        fields = fields_of(data.draw(st.sampled_from(records)))
        run = data.draw(st.sampled_from(fields["source"]))
        code = run[1]
        position = data.draw(st.integers(0, len(code) - 1))
        other = data.draw(st.sampled_from(
            [digit for digit in "0123456789abcdef"
             if digit != code[position]]))
        run[1] = code[:position] + other + code[position + 1:]
        record = unsealed(fields)
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
    def test_rekeyed_damage(self, victim, stored_code, damage):
        """Code in a record, damaged or not, never reaches the loader:
        the layout has no such field."""
        victim["code"] = damage(stored_code)
        assert_corrupt(resealed(victim))

    def test_the_invalid_parcel_is_invalid(self):
        with pytest.raises(UopDecodeError, match="invalid short opcode"):
            decode_uop(bytes.fromhex(INVALID_PARCEL))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_origins_must_cover_the_code_exactly(self, victim, delta):
        """The path is the trace exactly: one block short or one block
        long is a path memory does not form."""
        addrs = victim["x86_addrs"]
        victim["x86_addrs"] = addrs[:-1] if delta < 0 \
            else addrs + [victim["source"][-1][0]]
        assert_corrupt(resealed(victim))

    def test_origins_may_not_claim_more_than_the_code_could_hold(
            self, victim):
        """A path far longer than any trace costs one formation, which
        stops at its caps, and is corrupt."""
        victim["x86_addrs"] = victim["x86_addrs"] * 10 ** 5
        validate_record(resealed(victim))
        assert_corrupt(resealed(victim))

    @pytest.mark.parametrize("origins", [
        None, [], "runs", [[None]], [[0, 1, 2]], [None], [[1.5, 20]],
        [["0x400000", 20]]])
    def test_malformed_origins(self, victim, origins):
        """A path that is no list of entries, or the empty one."""
        victim["x86_addrs"] = origins
        assert_corrupt(resealed(victim))

    def test_json_booleans_are_not_counts(self, victim):
        """An entry ``true`` is no address, and a ``loops`` of 1 no flag."""
        assert_corrupt(resealed(dict(victim, x86_addrs=[True])))
        assert_corrupt(resealed(dict(victim, loops=1)))

    @pytest.mark.parametrize("field", ["exits", "side_table", "source"])
    @pytest.mark.parametrize("junk", [None, 5, [[0, ["taken"], None]]])
    def test_malformed_anchor_lists_do_not_raise(self, victim, field,
                                                  junk):
        victim[field] = junk
        assert_corrupt(resealed(victim))


def json_type(value) -> str:
    """A JSON value's type as the layout tells them apart (a boolean is
    not a number)."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(
        type(value), "null")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def load_one(record):
    """One record through a fresh VM's loader; its report."""
    return WarmStartLoader(booted().runtime).load_records([record])


class TestEveryFieldIsTyped:
    """Each field the layout keeps is checked for its JSON type before
    anything reads it: a well-keyed record of the wrong shape is
    ``corrupt``, never ``undecodable``, never installed."""

    @pytest.mark.parametrize("addrs", [[True, "x"], 5, None, [1.5],
                                       [[4194304]]],
                             ids=["bool-and-str", "number", "null",
                                  "float", "nested"])
    def test_x86_addrs(self, victim, addrs):
        victim["x86_addrs"] = addrs
        report = load_one(resealed(victim))
        assert (report.corrupt, report.undecodable, report.loaded) == \
            (1, 0, 0)

    @pytest.mark.parametrize("value", ["abc", 0, None])
    def test_an_unknown_field_is_corrupt(self, victim, value):
        # the dead counter address of layout v2 among them
        victim["counter_addr"] = value
        report = load_one(resealed(victim))
        assert (report.corrupt, report.undecodable) == (1, 0)

    def test_a_missing_field_is_corrupt(self, victim):
        del victim["loops"]
        assert load_one(resealed(victim)).corrupt == 1

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_field_of_the_wrong_json_type(self, records, data):
        fields = fields_of(data.draw(st.sampled_from(records)))
        name = data.draw(st.sampled_from(sorted(fields)))
        fields[name] = data.draw(json_values.filter(
            lambda value: json_type(value) != json_type(fields[name])))
        # a key that is not a string cannot be sealed: stored as it is
        record = unsealed(fields) if name == "key" else resealed(fields)
        with pytest.raises(PersistFormatError):
            validate_record(record)
        report = load_one(record)
        assert (report.corrupt, report.undecodable, report.loaded) == \
            (1, 0, 0)


class TestTheStoredTextUnderSearch:
    """The record -> loader boundary over every one-byte flip and every
    truncation of the golden stored texts: what the pull hands the
    loader is ``corrupt``, what it drops is a ``missing_objects``;
    nothing is loaded, nothing is ``undecodable``, nothing raises."""

    @staticmethod
    def outcomes(text, damaged_texts):
        key = json.loads(text)["key"]
        loader = WarmStartLoader(booted().runtime)
        seen = {"corrupt": 0, "missing": 0}
        for damaged in damaged_texts:
            records = pulled_records({"entries": [key],
                                      "objects": [damaged]})
            if not records:
                seen["missing"] += 1
                continue
            report = loader.load_records(records)
            assert (report.corrupt, report.loaded, report.undecodable) \
                == (1, 0, 0), damaged
            seen["corrupt"] += 1
        return seen

    @pytest.mark.parametrize("which", [0, 1], ids=["bbt", "sbt"])
    @pytest.mark.parametrize("mask", [0x01, 0x08, 0x20])
    def test_every_flipped_byte(self, which, mask):
        text = golden_texts()[which]
        data = text.encode()
        flipped = []
        for at in range(len(data)):
            damaged = bytearray(data)
            damaged[at] ^= mask
            flipped.append(bytes(damaged).decode())
        seen = self.outcomes(text, flipped)
        assert seen["corrupt"] + seen["missing"] == len(data)
        assert seen["corrupt"] > 0

    @pytest.mark.parametrize("which", [0, 1], ids=["bbt", "sbt"])
    def test_a_lone_surrogate_in_a_source_run(self, which):
        """A pulled text may hold a character that has no UTF-8 bytes (a
        frame's ``\\ud800`` decodes to one): corrupt, never raised."""
        text = golden_texts()[which]
        addr, data = json.loads(text)["source"][0]
        damaged = text.replace(f'[{addr},"{data}"]',
                               f'[{addr},"\ud800{data[1:]}"]', 1)
        assert damaged != text
        assert self.outcomes(text, [damaged]) == {"corrupt": 1, "missing": 0}

    @pytest.mark.parametrize("which", [0, 1], ids=["bbt", "sbt"])
    def test_every_truncation(self, which):
        text = golden_texts()[which]
        seen = self.outcomes(text, [text[:at] for at in range(len(text))])
        # a cut JSON object never parses: every one is a missing object
        assert seen == {"corrupt": 0, "missing": len(text)}


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
        source = entries((0, 8), (20, 6), (40, 6))
        assert source_matches({"source": source}, text)
        assert text.reads == [(TEXT, 8), (TEXT + 20, 6), (TEXT + 40, 6)]

    def test_a_loaded_record_is_read_once_per_run(self, records):
        vm = booted()
        for record in records:
            assert source_matches(record, vm.state.memory)
            source = record["source"]
            # capture stores maximal runs: none continues the one before
            assert all(addr != before + len(text) // 2
                       for (before, text), (addr, _)
                       in zip(source, source[1:]))
            memory = CountingMemory()
            source_matches(record, memory)
            assert len(memory.reads) == len(source)

    @pytest.mark.parametrize("stale_at", [0, 3, 6, 7])
    def test_a_stale_byte_anywhere_in_a_run(self, text, stale_at):
        source = entries((0, 8))
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
        edge = [[0x40_0FFE, "00000000"]]
        assert source_matches({"source": edge}, text)
        edge[0][1] = "00009000"
        assert not source_matches({"source": edge}, text)
        # the end of the address space raises MemoryError_: stale
        top = [[0xFFFF_FFFC, "00000000"]]
        assert source_matches({"source": top}, text)
        top[0][1] += "00"
        with pytest.raises(MemoryError_):
            text.read(0xFFFF_FFFC, 5)
        assert not source_matches({"source": top}, text)
        # and so is a run that starts past it, although a bare read
        # there wraps to address 0 and matches the zeros it finds
        beyond = [[0x1_0000_0000, "00"]]
        assert per_entry({"source": beyond}, text)
        assert not source_matches({"source": beyond}, text)

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


def forge_manifest(store, vm) -> int:
    """Re-issue an old store's records under the current layout: its
    object files' texts as they are, saved by the repository's own
    writer under a manifest of the current format and ``vm``'s
    fingerprints; returns how many (old) records it lists."""
    manifest = json.loads(next((store / "manifests").glob("*.json"))
                          .read_text())
    texts = stored_texts(store) if (store / "packs").exists() else {
        key: (store / "objects" / f"{key}.json").read_text()
        for key in manifest["entries"]}
    records = [parse_record(texts[key]) for key in manifest["entries"]]
    TranslationRepository(store).save(
        records, config_fingerprint(vm.config),
        manifest["image_fingerprint"], config_name=manifest["config_name"])
    return len(manifest["entries"])


class TestV1Store:
    """``tests/data/v1_store``: the LOOP program's translations as the
    PR 14 code saved them (format 1, nine-field micro-op lists)."""

    STORE, VERSION = "v1_store", 1

    @staticmethod
    def spells_its_layout(record) -> bool:
        """Layout 1 keeps its micro-ops as field lists."""
        return "uops" in record and "code" not in record

    @pytest.fixture
    def store(self, tmp_path):
        shutil.copytree(DATA / self.STORE, tmp_path / "store")
        return tmp_path / "store"

    @staticmethod
    def stored(store):
        """The old store's record texts."""
        return [path.read_text()
                for path in (store / "objects").glob("*.json")]

    def test_it_is_the_old_layout(self, store):
        texts = self.stored(store)
        assert len(texts) == 5
        for text in texts:
            record = parse_record(text)
            assert record["format"] == self.VERSION
            assert self.spells_its_layout(record)
            with pytest.raises(PersistFormatError, match=(
                    f"format version {self.VERSION} != {FORMAT_VERSION}")):
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
        assert f"format version {self.VERSION} != {FORMAT_VERSION}" \
            in found.format()

    def test_forged_v2_manifest_still_loads_nothing(self, store):
        """Even when a pack and a manifest of the current version hold
        them, old records are never installed: the store serves what it
        holds and the loader finds every one corrupt."""
        vm = booted()
        listed = forge_manifest(store, vm)
        report = vm.warm_start(TranslationRepository(store))
        assert report.loaded == report.missing_objects == 0
        assert report.corrupt == listed == 5
        assert vm.run().blocks_translated > 0

    def test_repairing_fsck_leaves_a_usable_store(self, store):
        repo = TranslationRepository(store)
        assert repo.fsck(repair=True).quarantined_objects == 5
        assert repo.fsck().ok
        cold = booted()
        cold.run()
        assert cold.save_translations(repo) > 0
        warm = booted()
        report = warm.warm_start(repo)
        assert report.loaded > 0 and report.dropped == 0
        assert warm.run().blocks_translated == 0


class TestV2Store(TestV1Store):
    """``tests/data/v2_store``: the same program's translations as the
    layout-2 code saved them (counter addresses in the prologue, source
    per instruction, keys over a re-encoding)."""

    STORE, VERSION = "v2_store", 2

    @staticmethod
    def spells_its_layout(record) -> bool:
        """Layout 2 names the counter address and keeps one source entry
        per instruction, contiguous ones included."""
        source = record["source"]
        return "counter_addr" in record and any(
            addr + len(data) // 2 == following
            for (addr, data), (following, _) in zip(source, source[1:]))


class TestV3Store(TestV1Store):
    """``tests/data/v3_store``: the same program's translations as the
    layout-3 code saved them (today's record fields, one object file per
    record, keys over a text that says format 3)."""

    STORE, VERSION = "v3_store", 3

    @staticmethod
    def spells_its_layout(record) -> bool:
        """Layout 3 holds the fields of today's records."""
        return "code" in record and "counter_addr" not in record


class TestV4Store(TestV1Store):
    """``tests/data/v4_store``: the same program's translations as the
    layout-4 code saved them (one pack, every record's micro-op bytes,
    a profiled block's prologue stored counter-free)."""

    STORE, VERSION = "v4_store", 4

    @staticmethod
    def stored(store):
        return list(stored_texts(store).values())

    @staticmethod
    def spells_its_layout(record) -> bool:
        """Layout 4 keeps a basic block's code, as every record's."""
        return "code" in record and "counter_addr" not in record


class TestV5Store(TestV4Store):
    """``tests/data/v5_store``: the same program's translations as the
    layout-5 code saved them (a basic block as its entry and source, a
    superblock's micro-op bytes and the metadata to place them)."""

    STORE, VERSION = "v5_store", 5

    @staticmethod
    def spells_its_layout(record) -> bool:
        """Layout 5 keeps a superblock's code, and no basic block's."""
        return ("code" in record) == (record["kind"] == "sbt") \
            and "loops" not in record
