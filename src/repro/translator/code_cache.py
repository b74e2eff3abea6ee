"""Code caches, the translation lookup table, and chaining.

Translations live in concealed main-memory regions (Fig. 1a's "Basic Block
Code Cache" and "SuperBlock Code Cache").  Block exits initially leave the
native machine through ``VMEXIT`` stubs that route through the VMM's
translation lookup table; once the target translation exists, the stub's
first micro-op is patched into a direct ``JMP`` — *chaining* — so steady-
state execution never re-enters the VMM.

:class:`TranslationDirectory` runs a translation's one lifecycle.  It
*places* it at the owning cache's next address (:meth:`Translation.place`)
and links it: waiting stubs chain to it, and an SBT copy redirects its
BBT copy's entry word to itself.  Capacity is finite: when an allocation
does not fit, the owning cache is flushed wholesale (the management
policy of that era's production systems, and the mechanism behind the
paper's "limited code cache size can cause hotspot re-translations"
observation); the integrity sweep evicts one corrupt copy.  Both
*forget* through one path, which undoes every link into the dead range
by writing back the canonical bytes (``Translation.code``) it patched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.fusible.encoding import WordTable, decode_stream
from repro.isa.fusible.microop import MicroOp
from repro.memory.address_space import AddressSpace
from repro.translator.emit import jump_code
from repro.verify.sanitizer import check_install

log = logging.getLogger("repro.translator")

#: Default placement of the two code caches.  They are adjacent so that a
#: chained JMP (signed 24-bit byte offset, +/-8 MiB) can always reach
#: across them.
BBT_CACHE_BASE = 0x2000_0000
BBT_CACHE_CAPACITY = 4 * 1024 * 1024
SBT_CACHE_BASE = 0x2040_0000
SBT_CACHE_CAPACITY = 4 * 1024 * 1024


class CodeCacheFull(Exception):
    """Internal signal: ``nbytes`` did not fit (flush if that helps)."""

    def __init__(self, message: str, nbytes: int) -> None:
        super().__init__(message)
        self.nbytes = nbytes


@dataclass
class ExitStub:
    """One exit point of a translation."""

    stub_addr: int                   # native address of the stub
    kind: str                        # 'jump'|'fallthrough'|'taken'|
    #                                  'indirect'|'vmcall'
    x86_target: Optional[int] = None  # None for indirect/vmcall exits
    chained_to: Optional[int] = None  # native target once patched


@dataclass
class Translation:
    """One installed translation (basic block or superblock) and the
    x86 source it was made from."""

    entry: int                       # architected entry address
    kind: str                        # 'bbt' | 'sbt'
    native_addr: int = 0
    native_len: int = 0
    x86_addrs: List[int] = field(default_factory=list)
    instr_count: int = 0
    uop_count: int = 0
    fused_pairs: int = 0
    #: a superblock that closes on its head (its path's last successor)
    loops: bool = False
    exits: List[ExitStub] = field(default_factory=list)
    #: native VMCALL address -> architected address (precise-state map)
    side_table: Dict[int, int] = field(default_factory=dict)
    counter_addr: Optional[int] = None
    #: the canonical (un-chained, un-redirected) bytes as installed, and
    #: the ``x86_addr`` of their micro-ops as ``[x86_addr, count]`` runs
    #: in stream order: what the verifier screens
    code: bytes = b""
    origins: Optional[List[List]] = None
    #: the x86 bytes it was made from, as contiguous ``[addr, bytes]`` runs
    source: List[List] = field(default_factory=list)

    @property
    def uops(self) -> List[MicroOp]:
        """The micro-ops, decoded from ``code`` + ``origins`` (a view:
        both translators emit bytes, and so does the warm loader)."""
        return decode_stream(self.code, None if self.origins is None
                             else expand_origins(self.origins))

    @property
    def fused_fraction(self) -> float:
        """Fraction of micro-ops that are part of a fused macro-op pair."""
        if not self.uop_count:
            return 0.0
        return 2.0 * self.fused_pairs / self.uop_count

    def integrity_mask(self) -> List[int]:
        """Byte offsets of the runtime-patchable linkage words.

        Chaining overwrites the first micro-op of each exit stub, and a
        superseding SBT copy overwrites the first word at the entry
        (the BBT->SBT redirect).  Those words are VMM-owned and legally
        mutate after install, so the integrity check masks them; the
        rest of the translation is immutable and fully covered.
        """
        offsets = [0]
        offsets.extend(stub.stub_addr - self.native_addr
                       for stub in self.exits)
        return offsets

    def place(self, native_addr: int, exits: Iterable = (),
              side: Iterable = ()) -> "Translation":
        """Relocate to ``native_addr``: offset-relative exits ``(offset,
        kind, x86 target)`` become its stubs and side entries ``(offset,
        x86 addr)`` its side table.  Micro-op displacements (BC/JMP) are
        translation-relative and need nothing.  Returns ``self``."""
        self.native_addr = native_addr
        self.exits = [ExitStub(native_addr + offset, kind, x86_target)
                      for offset, kind, x86_target in exits]
        self.side_table = {native_addr + offset: x86_addr
                           for offset, x86_addr in side}
        return self


def expand_origins(origins: Iterable) -> List[Optional[int]]:
    """``[x86_addr, count]`` runs back to one ``x86_addr`` a micro-op."""
    addrs: List[Optional[int]] = []
    for addr, count in origins:
        addrs += [addr] * count
    return addrs


def extend_origins(origins: List[List], x86_addr: Optional[int],
                   count: int) -> None:
    """Add ``count`` micro-ops of ``x86_addr`` to the ``origins`` runs."""
    if origins and origins[-1][0] == x86_addr:
        origins[-1][1] += count
    elif count:
        origins.append([x86_addr, count])


class CodeCache:
    """A bump-allocated native-code region with wholesale flush."""

    def __init__(self, memory: AddressSpace, base: int, capacity: int,
                 name: str) -> None:
        self.memory = memory
        self.base = base
        self.capacity = capacity
        self.name = name
        self._next = base
        self.translations: List[Translation] = []
        self.flushes = 0
        self.bytes_installed_total = 0

    @property
    def used_bytes(self) -> int:
        return self._next - self.base

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def would_fit(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def install(self, data: bytes, translation: Translation) -> None:
        """Write a translation placed at :meth:`reserve` into the cache."""
        if not self.would_fit(len(data)):
            raise CodeCacheFull(
                f"{self.name}: {len(data)} bytes do not fit "
                f"({self.free_bytes} free)", len(data))
        self.memory.write(self._next, data)
        self._next += len(data)
        translation.native_len = len(data)
        translation.code = data
        self.translations.append(translation)
        self.bytes_installed_total += len(data)

    def reserve(self) -> int:
        """The address the next install() will use."""
        return self._next

    def flush(self) -> List[Translation]:
        """Drop everything; returns the translations that were evicted."""
        evicted = self.translations
        log.info("%s cache flush: %d translation(s), %d byte(s) evicted",
                 self.name, len(evicted), self.used_bytes)
        self.memory.fill(self.base, self.used_bytes, 0)
        self._next = self.base
        self.translations = []
        self.flushes += 1
        return evicted


class TranslationDirectory:
    """The VMM's translation lookup table plus the chaining registry.

    Unifies the BBT and SBT caches: lookups prefer SBT translations (the
    optimized copy supersedes the simple one), chaining requests are
    resolved against whichever cache a target lands in, and a flush or an
    eviction forgets the affected entries and undoes links into them.
    """

    def __init__(self, memory: AddressSpace,
                 bbt_base: int = BBT_CACHE_BASE,
                 bbt_capacity: int = BBT_CACHE_CAPACITY,
                 sbt_base: int = SBT_CACHE_BASE,
                 sbt_capacity: int = SBT_CACHE_CAPACITY) -> None:
        self.memory = memory
        #: lifecycle event tracer; None (the default) costs one pointer
        #: test per chain/flush/evict site
        self.tracer = None
        #: the owning VM's word table (``VMRuntime`` sets it): what SBT
        #: and the install-time sanitizer read code through
        self.words = WordTable()
        #: superblock heads: the machine's ``loop_heads`` (``VMRuntime``)
        self.loop_heads: Dict[int, int] = {}
        self.bbt_cache = CodeCache(memory, bbt_base, bbt_capacity, "bbt")
        self.sbt_cache = CodeCache(memory, sbt_base, sbt_capacity, "sbt")
        self._bbt_lookup: Dict[int, Translation] = {}
        self._sbt_lookup: Dict[int, Translation] = {}
        #: x86 target -> stubs waiting to be chained to it
        self._pending_chains: Dict[int, List[ExitStub]] = {}
        #: native stub address -> (stub, owning translation)
        self._stub_by_addr: Dict[int, Tuple[ExitStub, Translation]] = {}
        #: native VMCALL address -> (x86 addr, owning translation)
        self._side_by_addr: Dict[int, Tuple[int, Translation]] = {}
        #: BBT entry redirections to superseding SBT copies:
        #: bbt native_addr -> (bbt copy, the sbt copy it jumps to)
        self._redirects: Dict[int, Tuple[Translation, Translation]] = {}
        self.chains_made = 0
        self.lookups = 0
        self.lookup_misses = 0
        self.redirects_made = 0

    # -- lookup -----------------------------------------------------------

    def lookup(self, x86_addr: int) -> Optional[Translation]:
        """Translation lookup table: SBT first, then BBT."""
        self.lookups += 1
        translation = self._sbt_lookup.get(x86_addr)
        if translation is None:
            translation = self._bbt_lookup.get(x86_addr)
        if translation is None:
            self.lookup_misses += 1
        return translation

    def has_translation(self, x86_addr: int) -> bool:
        return x86_addr in self._sbt_lookup or x86_addr in self._bbt_lookup

    def has_sbt(self, x86_addr: int) -> bool:
        return x86_addr in self._sbt_lookup

    def find_stub(self, native_addr: int
                  ) -> Optional[Tuple[ExitStub, Translation]]:
        return self._stub_by_addr.get(native_addr)

    def resolve_side_table(self, native_addr: int
                           ) -> Optional[Tuple[int, Translation]]:
        """Map a VMCALL's native address to its architected address."""
        return self._side_by_addr.get(native_addr)

    def is_redirected(self, native_addr: int) -> bool:
        """Whether a BBT entry was patched to jump to its SBT copy."""
        return native_addr in self._redirects

    # -- installation -------------------------------------------------------

    def cache_for(self, kind: str) -> CodeCache:
        return self.bbt_cache if kind == "bbt" else self.sbt_cache

    def _lookup_for(self, kind: str) -> Dict[int, Translation]:
        return self._bbt_lookup if kind == "bbt" else self._sbt_lookup

    def install(self, data: bytes, translation: Translation,
                exits: Iterable = (), side: Iterable = ()) -> None:
        """Place a finished translation at its cache's next address (see
        :meth:`Translation.place`), install it and wire up all linkage."""
        cache = self.cache_for(translation.kind)
        cache.install(data, translation.place(cache.reserve(), exits, side))
        self._lookup_for(translation.kind)[translation.entry] = translation
        for stub in translation.exits:
            self._stub_by_addr[stub.stub_addr] = (stub, translation)
        for native_addr, x86_addr in translation.side_table.items():
            self._side_by_addr[native_addr] = (x86_addr, translation)
        # resolve chains waiting for this entry
        self._resolve_pending(translation.entry, translation.native_addr)
        # an SBT copy supersedes the BBT copy: patch the BBT entry with a
        # direct JMP so already-chained paths transition to hotspot code
        if translation.kind == "sbt":
            self.loop_heads[translation.native_addr] = 0
            bbt_copy = self._bbt_lookup.get(translation.entry)
            if bbt_copy is not None and \
                    bbt_copy.native_addr not in self._redirects:
                offset = translation.native_addr - \
                    (bbt_copy.native_addr + 4)
                self.memory.write(bbt_copy.native_addr, jump_code(offset))
                self._redirects[bbt_copy.native_addr] = (bbt_copy,
                                                         translation)
                self.redirects_made += 1
        check_install(self, translation)

    # -- chaining ---------------------------------------------------------------

    def request_chain(self, stub: ExitStub) -> bool:
        """Chain a stub to its target now, or queue it for later.

        Returns True if the stub was patched immediately.
        """
        if stub.x86_target is None or stub.chained_to is not None:
            return False
        target = self.lookup(stub.x86_target)
        if target is not None:
            self._patch(stub, target.native_addr)
            return True
        self._pending_chains.setdefault(stub.x86_target, []).append(stub)
        return False

    def _resolve_pending(self, x86_target: int, native_addr: int) -> None:
        for stub in self._pending_chains.pop(x86_target, []):
            if stub.chained_to is None:
                self._patch(stub, native_addr)

    def _patch(self, stub: ExitStub, native_target: int) -> None:
        """Overwrite the stub head with a direct JMP (the chain)."""
        offset = native_target - (stub.stub_addr + 4)
        jmp = jump_code(offset)
        self.memory.write(stub.stub_addr, jmp)
        stub.chained_to = native_target
        self.chains_made += 1
        if self.tracer is not None:
            self.tracer.instant("chain.made",
                                stub=f"{stub.stub_addr:#x}",
                                target=f"{native_target:#x}")

    def _unpatch(self, stub: ExitStub) -> None:
        """Write back the stub head's canonical word (undo chaining)."""
        _stub, owner = self._stub_by_addr[stub.stub_addr]
        at = stub.stub_addr - owner.native_addr
        self.memory.write(stub.stub_addr, owner.code[at:at + 4])
        stub.chained_to = None
        if self.tracer is not None:
            self.tracer.instant("chain.broken",
                                stub=f"{stub.stub_addr:#x}")

    # -- forgetting --------------------------------------------------------------

    def flush(self, kind: str) -> List[Translation]:
        """Flush one cache wholesale and forget what it held; returns
        the translations that were evicted."""
        cache = self.cache_for(kind)
        evicted = cache.flush()
        if self.tracer is not None:
            self.tracer.instant("cache.flush", cache=kind,
                                evicted=len(evicted))
        self._forget(evicted, cache.base, cache.base + cache.capacity)
        return evicted

    def evict(self, translation: Translation) -> None:
        """Forget one translation (detected corruption) without a flush.

        Its cache bytes are abandoned (bump allocation cannot reclaim
        holes); a later wholesale flush reclaims them.
        """
        cache = self.cache_for(translation.kind)
        if translation in cache.translations:
            cache.translations.remove(translation)
        if self.tracer is not None:
            self.tracer.instant("cache.evict", cache=translation.kind,
                                entry=f"{translation.entry:#x}")
        self._forget([translation], translation.native_addr,
                     translation.native_addr + translation.native_len)

    def _forget(self, translations: Iterable[Translation], low: int,
                high: int) -> None:
        """Unlink ``translations``, whose code lies in ``[low, high)``:
        their lookup entries, stubs and side-table entries, the pending
        chains of stubs in the range, and every link into the range (a
        chained stub or a redirected BBT entry gets its canonical word
        back, so execution falls back to the lookup table)."""
        for translation in translations:
            lookup = self._lookup_for(translation.kind)
            if lookup.get(translation.entry) is translation:
                del lookup[translation.entry]
            for stub in translation.exits:
                self._stub_by_addr.pop(stub.stub_addr, None)
            for native_addr in translation.side_table:
                self._side_by_addr.pop(native_addr, None)
            self.loop_heads.pop(translation.native_addr, None)
        for target in list(self._pending_chains):
            remaining = [stub for stub in self._pending_chains[target]
                         if not low <= stub.stub_addr < high]
            if remaining:
                self._pending_chains[target] = remaining
            else:
                del self._pending_chains[target]
        for stub, _owner in self._stub_by_addr.values():
            if stub.chained_to is not None and \
                    low <= stub.chained_to < high:
                self._unpatch(stub)
        for native_addr, (bbt_copy, sbt_copy) in list(
                self._redirects.items()):
            if low <= native_addr < high:
                del self._redirects[native_addr]
            elif low <= sbt_copy.native_addr < high:
                self.memory.write(native_addr, bbt_copy.code[:4])
                del self._redirects[native_addr]

    # -- integrity ---------------------------------------------------------

    def verify_integrity(self, translation: Translation) -> bool:
        """Whether the installed bytes still are ``translation.code``,
        the bytes :meth:`install` wrote.

        The runtime-patchable linkage words (chain/redirect sites) are
        masked out, so legal chaining and redirection never trip this;
        any other byte differing from what :meth:`install` wrote means
        the cache copy is corrupt and must not be executed.
        """
        if translation.native_len == 0:
            return True
        code = translation.code
        data = bytearray(self.memory.read(translation.native_addr,
                                          translation.native_len))
        for offset in translation.integrity_mask():
            data[offset:offset + 4] = code[offset:offset + 4]
        return data == code
