"""Unit tests for the sparse address space and image loader."""

import pytest
from hypothesis import given, strategies as st

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
