"""What a translation store holds, read and damaged the way bit rot does.

A store keeps each record's stored text in a pack, and ``meta.json``
locates it by pack, offset and size (``docs/persistence.md``, "Layout
v4").  These helpers reach the stored copy of one key directly: a test
damages exactly that copy, and the index keeps pointing at the damaged
bytes, so what the store serves next is what the damage left.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.translator.code_cache import expand_origins


def translation_stream(translation) -> Tuple[bytes, List[Optional[int]]]:
    """A translation's canonical bytes and the ``x86_addr`` of each
    micro-op in them (``origins`` expanded)."""
    return translation.code, expand_origins(translation.origins)


def with_stored_code(fields, translation, code: Optional[bytes] = None
                     ) -> Dict:
    """An SBT record's ``fields`` as layout 5 spelled them: ``code`` (the
    translation's own bytes when left out) as hex, with the metadata
    layout 5 kept to place it, and no ``loops``.  Re-keyed at the
    current ``FORMAT_VERSION``, it is a record that carries code."""
    native = translation.native_addr
    fields = {name: value for name, value in fields.items()
              if name != "loops"}
    fields.update(
        code=(translation.code if code is None else code).hex(),
        origins=[list(run) for run in translation.origins],
        exits=[[stub.stub_addr - native, stub.kind, stub.x86_target]
               for stub in translation.exits],
        side_table=sorted([addr - native, x86_addr] for addr, x86_addr
                          in translation.side_table.items()),
        instr_count=translation.instr_count,
        fused_pairs=translation.fused_pairs)
    fields.setdefault("x86_addrs", list(translation.x86_addrs))
    return fields


def _meta(root) -> Dict:
    path = Path(root) / "meta.json"
    return json.loads(path.read_text()) if path.exists() \
        else {"objects": {}}


def stored_texts(root) -> Dict[str, str]:
    """Every indexed key's stored text, as its pack holds it."""
    root = Path(root)
    texts = {}
    for key, entry in _meta(root)["objects"].items():
        data = (root / "packs" / entry["pack"]).read_bytes()
        texts[key] = data[entry["offset"]:
                          entry["offset"] + entry["size"]].decode()
    return texts


def packed_keys(root) -> List[str]:
    """The key of every record in every pack, sorted: what an index
    rebuilt from the packs would hold, duplicates included."""
    keys = []
    for pack in sorted((Path(root) / "packs").glob("*.pack")):
        keys += [json.loads(line)["key"]
                 for line in pack.read_bytes().splitlines() if line]
    return sorted(keys)


def damage_stored(root, key: str,
                  how: Callable[[str], Optional[str]]) -> None:
    """Replace the stored copy of ``key`` by ``how(text)`` in place.

    ``None`` removes the copy: the key leaves the index (and a pack left
    empty goes), while every manifest still lists it."""
    root = Path(root)
    meta = _meta(root)
    objects = meta["objects"]
    entry = objects[key]
    pack = root / "packs" / entry["pack"]
    data = pack.read_bytes()
    start, end = entry["offset"], entry["offset"] + entry["size"]
    text = how(data[start:end].decode())
    if text is None:
        del objects[key]
        replacement, end = b"", end + 1     # the line and its newline
    else:
        replacement = text.encode()
        entry["size"] = len(replacement)
    shift = len(replacement) - (end - start)
    for other in objects.values():
        if other["pack"] == entry["pack"] and other["offset"] > start:
            other["offset"] += shift
    data = data[:start] + replacement + data[end:]
    if data:
        pack.write_bytes(data)
    else:
        pack.unlink()
    (root / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")))
