"""Unit tests for the sparse address space and image loader."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import AddressSpace, Image, MemoryError_, load_image
from repro.memory.address_space import PAGE_SIZE


class TestAddressSpace:
    def test_fresh_memory_reads_zero(self):
        memory = AddressSpace()
        assert memory.read(0x1234, 8) == bytes(8)
        assert memory.read_u32(0xDEADBEEF) == 0

    def test_write_read_roundtrip(self):
        memory = AddressSpace()
        memory.write(0x400000, b"hello world")
        assert memory.read(0x400000, 11) == b"hello world"

    def test_write_spanning_pages(self):
        memory = AddressSpace()
        addr = PAGE_SIZE - 3
        memory.write(addr, b"abcdef")
        assert memory.read(addr, 6) == b"abcdef"
        assert memory.resident_pages == 2

    def test_scalar_little_endian(self):
        memory = AddressSpace()
        memory.write_u32(0x100, 0x11223344)
        assert memory.read(0x100, 4) == b"\x44\x33\x22\x11"
        assert memory.read_u16(0x100) == 0x3344
        assert memory.read_u8(0x103) == 0x11

    def test_u16_roundtrip(self):
        memory = AddressSpace()
        memory.write_u16(0x200, 0xBEEF)
        assert memory.read_u16(0x200) == 0xBEEF

    def test_i32_sign(self):
        memory = AddressSpace()
        memory.write_u32(0x300, 0xFFFFFFFF)
        assert memory.read_i32(0x300) == -1

    def test_u8_write_masks(self):
        memory = AddressSpace()
        memory.write_u8(0x10, 0x1FF)
        assert memory.read_u8(0x10) == 0xFF

    def test_sparse_pages_lazy(self):
        memory = AddressSpace()
        memory.read(0x10000000, 64)
        assert memory.resident_pages == 0
        memory.write_u8(0x10000000, 1)
        assert memory.resident_pages == 1

    def test_fill(self):
        memory = AddressSpace()
        memory.fill(0x50, 16, 0xAB)
        assert memory.read(0x50, 16) == b"\xab" * 16

    def test_snapshot_is_independent(self):
        memory = AddressSpace()
        memory.write_u32(0x40, 42)
        clone = memory.snapshot()
        memory.write_u32(0x40, 99)
        assert clone.read_u32(0x40) == 42

    def test_negative_read_size_rejected(self):
        with pytest.raises(MemoryError_):
            AddressSpace().read(0, -1)

    def test_read_past_end_rejected(self):
        with pytest.raises(MemoryError_):
            AddressSpace().read(0xFFFFFFFF, 2)

    @given(addr=st.integers(0, 0xFFFFF000),
           data=st.binary(min_size=1, max_size=64))
    def test_roundtrip_property(self, addr, data):
        memory = AddressSpace()
        memory.write(addr, data)
        assert memory.read(addr, len(data)) == data

    @given(addr=st.integers(0, 0xFFFFFF00),
           value=st.integers(0, 0xFFFFFFFF))
    def test_u32_roundtrip_property(self, addr, value):
        memory = AddressSpace()
        memory.write_u32(addr, value)
        assert memory.read_u32(addr) == value


class TestWriteWatch:
    PAGE = 0x400000 // PAGE_SIZE

    def watched(self):
        memory = AddressSpace()
        fired = []
        memory.watch(self.PAGE, fired.append)
        return memory, fired

    @pytest.mark.parametrize("write", [
        lambda memory: memory.write(0x400010, b"xy"),
        lambda memory: memory.write_u8(0x400010, 1),
        lambda memory: memory.write_u16(0x400010, 1),
        lambda memory: memory.write_u32(0x400010, 1),
        lambda memory: memory.fill(0x400010, 8, 0xFF),
        lambda memory: memory.fill(0x400010, 8),    # same bytes: still a write
    ], ids=["write", "write_u8", "write_u16", "write_u32", "fill",
            "fill_zero"])
    def test_every_write_accessor_fires(self, write):
        memory, fired = self.watched()
        write(memory)
        assert fired == [self.PAGE]

    def test_reads_never_fire(self):
        memory, fired = self.watched()
        memory.write(0x400000 + PAGE_SIZE, b"next page")
        memory.read(0x400000, 64)
        memory.read_u8(0x400001)
        memory.read_u16(0x400002)
        memory.read_u32(0x400004)
        memory.read_i32(0x400008)
        assert fired == []

    def test_fires_once_until_watched_again(self):
        memory, fired = self.watched()
        memory.write_u8(0x400000, 1)
        memory.write_u8(0x400000, 2)
        assert fired == [self.PAGE]
        memory.watch(self.PAGE, fired.append)
        memory.write_u8(0x400000, 3)
        assert fired == [self.PAGE, self.PAGE]

    def test_write_spanning_pages_fires_each_watched_page(self):
        memory, fired = self.watched()
        memory.watch(self.PAGE + 1, fired.append)
        memory.write(0x400000 + PAGE_SIZE - 2, b"abcd")
        assert fired == [self.PAGE, self.PAGE + 1]
        assert memory.read(0x400000 + PAGE_SIZE - 2, 4) == b"abcd"

    def test_every_watcher_of_a_page_is_called(self):
        memory, fired = self.watched()
        also = []
        memory.watch(self.PAGE, also.append)
        memory.write_u8(0x400000, 1)
        assert fired == also == [self.PAGE]

    def test_snapshot_does_not_inherit_watches(self):
        memory, fired = self.watched()
        clone = memory.snapshot()
        clone.write_u32(0x400000, 7)
        assert fired == []
        memory.write_u32(0x400000, 7)
        assert fired == [self.PAGE]


class TestImageLoader:
    def test_load_image(self):
        image = Image(entry=0x400000)
        image.add_segment("text", 0x400000, b"\x90\xf4")
        image.add_segment("data", 0x500000, b"\x01\x02")
        memory = AddressSpace()
        entry = load_image(image, memory)
        assert entry == 0x400000
        assert memory.read(0x400000, 2) == b"\x90\xf4"
        assert memory.read(0x500000, 2) == b"\x01\x02"

    def test_overlap_rejected(self):
        image = Image(entry=0)
        image.add_segment("a", 0x1000, bytes(16))
        with pytest.raises(ValueError):
            image.add_segment("b", 0x100F, bytes(4))

    def test_adjacent_segments_allowed(self):
        image = Image(entry=0)
        image.add_segment("a", 0x1000, bytes(16))
        image.add_segment("b", 0x1010, bytes(4))
        assert image.total_bytes() == 20

    def test_text_property(self):
        image = Image(entry=0)
        image.add_segment("text", 0x400000, b"\x90")
        assert image.text.addr == 0x400000
        assert image.text.end == 0x400001

    def test_missing_text_raises(self):
        with pytest.raises(ValueError):
            _ = Image(entry=0).text


# -- every accessor against a flat model, by search ---------------------------

TOP = 1 << 32
#: page bases worth meeting: the first and last pages of the address
#: space, two neighbours (so a straddle lands on a page also written
#: directly) and one far away that most runs never write
BASES = (0, 0x600000, 0x600000 + PAGE_SIZE, 0x7FFFF000, TOP - PAGE_SIZE)
addresses = st.builds(
    lambda base, offset, wrap: base + offset + wrap,
    st.sampled_from(BASES),
    st.one_of(st.integers(PAGE_SIZE - 4, PAGE_SIZE),     # the page's end
              st.integers(0, PAGE_SIZE - 1)),
    st.sampled_from((0, 0, 0, TOP, -TOP)))               # masked away
sizes = st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 15, PAGE_SIZE,
                         PAGE_SIZE + 3, 2 * PAGE_SIZE + 1))
values = st.one_of(st.sampled_from((-1, 0x1FF, 0x8000, 0x1FFFF, 0x80000000,
                                    TOP - 1, TOP + 0x11223344)),
                   st.integers(0, TOP - 1))
SCALARS = {"u8": 1, "u16": 2, "u32": 4, "i32": 4}
operations = st.one_of(
    st.tuples(st.just("read"), addresses, sizes),
    st.tuples(st.just("write"), addresses, sizes.filter(lambda n: n >= 0),
              st.integers(0, 255)),
    st.tuples(st.just("fill"), addresses, sizes, st.integers(-1, 0x1FF)),
    *(st.tuples(st.just(name), addresses)
      for name in ("read_u8", "read_u16", "read_u32", "read_i32")),
    *(st.tuples(st.just(name), addresses, values)
      for name in ("write_u8", "write_u16", "write_u32")),
    st.tuples(st.just("snapshot"), addresses),
    st.tuples(st.just("drop_pages"), st.sampled_from(BASES),
              st.sampled_from((0, PAGE_SIZE, 2 * PAGE_SIZE, TOP))),
)


def pages_of(addr, size):
    return list(range(addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE + 1)) \
        if size > 0 else []


class FlatModel:
    """What an :class:`AddressSpace` must be indistinguishable from: one
    ``dict`` entry per byte ever written."""

    def __init__(self):
        self.bytes = {}       # dict[int, int]
        self.resident = set()

    def read(self, addr, size):
        return bytes(self.bytes.get(addr + i, 0) for i in range(size))

    def write(self, addr, data):
        self.bytes.update(zip(range(addr, addr + len(data)), data))
        self.resident.update(pages_of(addr, len(data)))

    def drop(self, start, end):
        gone = {page for page in self.resident
                if start <= page * PAGE_SIZE < end}
        self.resident -= gone
        self.bytes = {addr: byte for addr, byte in self.bytes.items()
                      if addr // PAGE_SIZE not in gone}
        return gone


class TestAgainstFlatModel:
    @staticmethod
    def apply(memory, model, operation):
        """Run one operation on both; returns ``(pages it must have
        written, in order)`` or ``None`` for one that must write nothing."""
        name, addr, *rest = operation
        masked = addr % TOP
        if name in ("read", "read_u8", "read_u16", "read_u32", "read_i32"):
            size = rest[0] if name == "read" else SCALARS[name[5:]]
            call = getattr(memory, name)
            if size < 0 or masked + size > TOP:
                with pytest.raises(MemoryError_) as caught:
                    call(addr, *rest)
                assert str(caught.value) == (
                    "negative read size" if size < 0 else
                    f"read past end of address space at {masked:#x}")
                return None
            expected = model.read(masked, size)
            if name != "read":
                expected = int.from_bytes(expected, "little",
                                          signed=name == "read_i32")
            assert call(addr, *rest) == expected
            return None
        if name == "snapshot":
            clone = memory.snapshot()
            assert clone.resident_pages == memory.resident_pages
            for page in model.resident:
                assert clone.read(page * PAGE_SIZE, PAGE_SIZE) == \
                    model.read(page * PAGE_SIZE, PAGE_SIZE)
            clone.write_u8(addr, memory.read_u8(addr) ^ 0xFF)   # no watch,
            assert memory.read_u8(addr) == model.read(masked, 1)[0]  # no alias
            return None
        if name == "drop_pages":
            memory.drop_pages(addr, addr + rest[0])
            return sorted(model.drop(addr, addr + rest[0]))
        if name == "write":
            data = bytes((rest[1] + i) & 0xFF for i in range(rest[0]))
            arguments = (data,)
        elif name == "fill":
            data = bytes([rest[1] & 0xFF]) * rest[0]
            arguments = tuple(rest)
        else:
            data = (rest[0] % (1 << 8 * SCALARS[name[6:]])).to_bytes(
                SCALARS[name[6:]], "little")
            arguments = (rest[0],)
        if masked + len(data) > TOP:
            with pytest.raises(MemoryError_) as caught:
                getattr(memory, name)(addr, *arguments)
            assert str(caught.value) == \
                f"write past end of address space at {masked:#x}"
            return None
        getattr(memory, name)(addr, *arguments)
        model.write(masked, data)
        return pages_of(masked, len(data))

    @given(st.lists(operations, min_size=5, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_values_errors_residency_and_watch_firings(self, program):
        memory, model = AddressSpace(), FlatModel()
        for operation in program:
            # one fresh arming of every page near every base, per step
            # (what a read left armed fires into its own, finished list)
            fired = []
            for page in {(base // PAGE_SIZE + n) % (TOP // PAGE_SIZE)
                         for base in BASES for n in range(-1, 4)}:
                memory.watch(page, fired.append)
            written = self.apply(memory, model, operation)
            if operation[0] == "drop_pages":
                fired.sort()        # dropped in residency order
            assert fired == (written or [])     # once each; reads never
            assert memory.resident_pages == len(model.resident)
        for page in model.resident:
            assert memory.read(page * PAGE_SIZE, PAGE_SIZE) == \
                model.read(page * PAGE_SIZE, PAGE_SIZE)

    def test_a_hot_loop_boot_reaches_read_and_write_only_for_ranges(
            self, monkeypatch):
        # every LDW/STW is one operation on its page: what is left for
        # ``read``/``write`` is fetch windows, installs and patches
        from pathlib import Path
        from repro.verify import sanitizer
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "tools"))
        # the autouse sanitizer would read every install back
        monkeypatch.setattr(sanitizer._STATE, "mode", None)
        import callcounts
        counts = callcounts.call_counts("hot_loop")
        assert counts["read_u32"] > 2000 and counts["write_u32"] > 2000
        assert counts["AddressSpace.read"] <= 320
        assert counts["AddressSpace.write"] <= 40
