"""Sparse paged address space with little-endian accessors.

Both ISAs in the system (the architected ``x86lite`` and the implementation
``fusible`` ISA) address the same kind of flat 32-bit byte-addressed memory.
Pages are materialized on first touch so that widely separated regions
(program text, stack, VMM code caches) do not cost proportional storage.
"""

from __future__ import annotations

import struct
from typing import Callable

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFFFFFF

#: the little-endian scalar codecs
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class MemoryError_(Exception):
    """Raised on invalid memory access (bad address or misuse)."""


class AddressSpace:
    """A sparse 32-bit little-endian byte-addressable memory.

    Pages (4 KiB) are allocated lazily.  Reads from never-written pages
    return zero bytes, matching the "zero-filled fresh page" model that the
    VMM relies on when carving out concealed code-cache regions.

    A page can be *watched* (:meth:`watch`): the next write that touches
    it, through any accessor, calls the watchers once and forgets them.
    The native machine keeps what it pre-decoded from code-cache bytes
    honest this way: its forms for a page are dropped before anything
    can execute the bytes a write left there.
    """

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        #: page index -> callbacks owed one call on the next write to it
        self._watches: dict[int, list[Callable[[int], None]]] = {}

    # -- page management -------------------------------------------------

    def _page_for_write(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page

    @property
    def resident_pages(self) -> int:
        """Number of pages materialized so far."""
        return len(self._pages)

    # -- write watches ----------------------------------------------------

    def watch(self, page_index: int,
              callback: Callable[[int], None]) -> None:
        """Call ``callback(page_index)`` once, after the next write that
        touches the page (reads never fire; re-arm from the callback's
        owner when needed)."""
        self._watches.setdefault(page_index, []).append(callback)

    def _fire_watches(self, page_index: int) -> None:
        for callback in self._watches.pop(page_index):
            callback(page_index)

    # -- byte-range access ------------------------------------------------
    # A range inside one page is one operation on that page; the page
    # walk below it is reached only by a range that crosses a boundary.

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (wrapping is an error)."""
        addr &= ADDRESS_MASK
        in_page = addr & PAGE_MASK
        size = len(data)
        # (an empty write touches no page: it falls through both paths)
        if 0 < size <= PAGE_SIZE - in_page:
            page_index = addr >> PAGE_SHIFT
            page = self._pages.get(page_index)
            if page is None:
                page = self._page_for_write(page_index)
            page[in_page:in_page + size] = data
            if page_index in self._watches:
                self._fire_watches(page_index)
            return
        if addr + len(data) > ADDRESS_MASK + 1:
            raise MemoryError_(f"write past end of address space at {addr:#x}")
        offset = 0
        remaining = len(data)
        while remaining:
            page_index, in_page = divmod(addr + offset, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self._page_for_write(page_index)
            page[in_page:in_page + chunk] = data[offset:offset + chunk]
            if page_index in self._watches:
                self._fire_watches(page_index)
            offset += chunk
            remaining -= chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        addr &= ADDRESS_MASK
        if size < 0:
            raise MemoryError_("negative read size")
        in_page = addr & PAGE_MASK
        if in_page + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return bytes(size)
            return bytes(page[in_page:in_page + size])
        if addr + size > ADDRESS_MASK + 1:
            raise MemoryError_(f"read past end of address space at {addr:#x}")
        out = bytearray(size)
        offset = 0
        remaining = size
        while remaining:
            page_index, in_page = divmod(addr + offset, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - in_page)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[in_page:in_page + chunk]
            offset += chunk
            remaining -= chunk
        return bytes(out)

    # -- scalar accessors ---------------------------------------------------
    # A scalar inside its page is one ``struct`` operation on the page; one
    # that straddles goes through ``read``/``write`` with the same codec.

    def read_u8(self, addr: int) -> int:
        page_index, in_page = divmod(addr & ADDRESS_MASK, PAGE_SIZE)
        page = self._pages.get(page_index)
        return page[in_page] if page is not None else 0

    def write_u8(self, addr: int, value: int) -> None:
        page_index, in_page = divmod(addr & ADDRESS_MASK, PAGE_SIZE)
        self._page_for_write(page_index)[in_page] = value & 0xFF
        if page_index in self._watches:
            self._fire_watches(page_index)

    def read_u16(self, addr: int) -> int:
        in_page = addr & PAGE_MASK
        if in_page > PAGE_SIZE - 2:
            return _U16.unpack(self.read(addr, 2))[0]
        page = self._pages.get((addr & ADDRESS_MASK) >> PAGE_SHIFT)
        return _U16.unpack_from(page, in_page)[0] if page is not None else 0

    def write_u16(self, addr: int, value: int) -> None:
        in_page = addr & PAGE_MASK
        if in_page > PAGE_SIZE - 2:
            return self.write(addr, _U16.pack(value & 0xFFFF))
        page_index = (addr & ADDRESS_MASK) >> PAGE_SHIFT
        page = self._pages.get(page_index)
        if page is None:
            page = self._page_for_write(page_index)
        _U16.pack_into(page, in_page, value & 0xFFFF)
        if page_index in self._watches:
            self._fire_watches(page_index)

    def read_u32(self, addr: int) -> int:
        in_page = addr & PAGE_MASK
        if in_page > PAGE_SIZE - 4:
            return _U32.unpack(self.read(addr, 4))[0]
        page = self._pages.get((addr & ADDRESS_MASK) >> PAGE_SHIFT)
        return _U32.unpack_from(page, in_page)[0] if page is not None else 0

    def write_u32(self, addr: int, value: int) -> None:
        in_page = addr & PAGE_MASK
        if in_page > PAGE_SIZE - 4:
            return self.write(addr, _U32.pack(value & 0xFFFFFFFF))
        page_index = (addr & ADDRESS_MASK) >> PAGE_SHIFT
        page = self._pages.get(page_index)
        if page is None:
            page = self._page_for_write(page_index)
        _U32.pack_into(page, in_page, value & 0xFFFFFFFF)
        if page_index in self._watches:
            self._fire_watches(page_index)

    def read_i32(self, addr: int) -> int:
        value = self.read_u32(addr)
        return value - 0x100000000 if value & 0x80000000 else value

    # -- bulk helpers -------------------------------------------------------

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        """Fill a range with a constant byte (used to scrub code caches)."""
        self.write(addr, bytes([byte & 0xFF]) * size)

    def drop_pages(self, start: int, end: int) -> None:
        """Forget every resident page that begins in ``[start, end)``: it
        reads as zeros again, which is a write as far as watches go."""
        for page_index in [index for index in self._pages
                           if start <= index << PAGE_SHIFT < end]:
            del self._pages[page_index]
            if page_index in self._watches:
                self._fire_watches(page_index)

    def snapshot(self) -> "AddressSpace":
        """Deep copy, used by differential tests and precise-state replay.

        Watches stay with the original: they belong to whoever decoded
        from *this* memory.
        """
        clone = AddressSpace()
        clone._pages = {index: bytearray(page)
                        for index, page in self._pages.items()}
        return clone
