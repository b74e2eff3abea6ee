"""The walk capture made before a translation kept its source: the oracle.

A record's ``source`` was once re-derived at capture: every x86
instruction the translation's ``origins`` cover was walked again through
``shape_at`` over windows fetched from memory, for a length the
translator already had.  Now each producer of a ``Translation`` keeps
the bytes it read (``Translation.source``); that walk is kept here as
the reference those bytes must equal while memory still holds what was
translated.
"""

from __future__ import annotations

from typing import List

from repro.isa.x86lite.instruction import MAX_INSTRUCTION_LENGTH
from repro.translator.templates import fetch, shape_at


def covered_source(origins: List[List], memory) -> List[List]:
    """``[addr, bytes]`` runs of the x86 instructions the stream
    covers, each run as long as the instructions are contiguous.

    Coverage comes from the per-micro-op ``x86_addr`` metadata (the
    ``origins`` runs), so the fingerprint spans exactly the instructions
    whose semantics the translation encodes (including superblock
    constituents).  Each instruction's length is its shape's, read from
    windows fetched as the translators fetch them: nothing is decoded.
    """
    addrs = sorted({addr for addr, _count in origins
                    if addr is not None})
    source: List[List] = []
    window, base, end = b"", 0, None
    for addr in addrs:
        offset = addr - base
        if offset + MAX_INSTRUCTION_LENGTH > len(window):
            window, base, offset = fetch(memory, addr), addr, 0
        length = shape_at(window, offset, addr).length
        data = window[offset:offset + length]
        if addr == end:
            source[-1][1] += data
        else:
            source.append([addr, data])
        end = addr + length
    return source


def translations(vm) -> list:
    """Every translation installed in ``vm``'s two code caches now."""
    directory = vm.runtime.directory
    return directory.bbt_cache.translations + \
        directory.sbt_cache.translations


def assert_sources_are_the_walk(vm) -> int:
    """Hold each installed translation's ``source`` to the walk over
    ``vm``'s memory; returns how many were checked."""
    checked = translations(vm)
    for translation in checked:
        assert translation.source == covered_source(
            translation.origins, vm.state.memory), \
            f"{translation.kind}@{translation.entry:#x}"
    return len(checked)
