"""Snapshot a live translation directory into persistable records."""

from __future__ import annotations

from typing import List

from repro.persist.format import Record, serialize_translation
from repro.translator.code_cache import TranslationDirectory


def capture_translations(directory: TranslationDirectory,
                         memory) -> List[Record]:
    """Serialize every currently installed translation.

    Only what is in the caches *now* is captured: translations lost to a
    wholesale flush earlier in the run are gone (which is exactly the
    cost the flush/retranslation counters quantify).  One whose source
    memory no longer holds (rewritten since it was translated) is not.
    """
    records: List[Record] = []
    for cache in (directory.bbt_cache, directory.sbt_cache):
        for translation in cache.translations:
            record = serialize_translation(translation, memory)
            if record is not None:
                records.append(record)
    return records
