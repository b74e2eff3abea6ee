"""Sparse paged address space with little-endian accessors.

Both ISAs in the system (the architected ``x86lite`` and the implementation
``fusible`` ISA) address the same kind of flat 32-bit byte-addressed memory.
Pages are materialized on first touch so that widely separated regions
(program text, stack, VMM code caches) do not cost proportional storage.
"""

from __future__ import annotations

from typing import Callable

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFFFFFF


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

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (wrapping is an error)."""
        addr &= ADDRESS_MASK
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
        data = self.read(addr, 2)
        return data[0] | (data[1] << 8)

    def write_u16(self, addr: int, value: int) -> None:
        value &= 0xFFFF
        self.write(addr, bytes((value & 0xFF, value >> 8)))

    def read_u32(self, addr: int) -> int:
        data = self.read(addr, 4)
        return data[0] | (data[1] << 8) | (data[2] << 16) | (data[3] << 24)

    def write_u32(self, addr: int, value: int) -> None:
        value &= 0xFFFFFFFF
        self.write(addr, bytes((value & 0xFF,
                                (value >> 8) & 0xFF,
                                (value >> 16) & 0xFF,
                                (value >> 24) & 0xFF)))

    def read_i32(self, addr: int) -> int:
        value = self.read_u32(addr)
        return value - 0x100000000 if value & 0x80000000 else value

    # -- bulk helpers -------------------------------------------------------

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        """Fill a range with a constant byte (used to scrub code caches)."""
        self.write(addr, bytes([byte & 0xFF]) * size)

    def snapshot(self) -> "AddressSpace":
        """Deep copy, used by differential tests and precise-state replay.

        Watches stay with the original: they belong to whoever decoded
        from *this* memory.
        """
        clone = AddressSpace()
        clone._pages = {index: bytearray(page)
                        for index, page in self._pages.items()}
        return clone
