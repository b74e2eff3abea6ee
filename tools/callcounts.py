#!/usr/bin/env python
"""Exact call counts of one boot: the table every perf PR quotes.

    python tools/callcounts.py wide_cold [--warm]   # cold, or from a store

Boots one ``perf/gen.py`` image (seed 0) under cProfile, after one
discarded boot (lazy set-up, the process-wide template table), and
prints the calls of a fixed list of functions as one JSON line: counts
repeat exactly, so parent and change compare digit by digit.  All it
writes is a temporary store, removed on exit.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import pstats
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perf")]

import gen                                                # noqa: E402
from repro.core import CoDesignedVM, vm_soft              # noqa: E402
from repro.isa.x86lite import assemble                    # noqa: E402
from repro.persist import TranslationRepository          # noqa: E402

SHAPES = {"hot_loop": gen.HOT_LOOP, "wide_cold": gen.WIDE_COLD}
#: row -> (end of the file name, function name) as cProfile spells them:
#: a namedtuple's ``__new__`` (``Located``'s) is a ``<lambda>`` in a string
COUNTED = {
    "decode_uop": ("isa/fusible/encoding.py", "decode_uop"),
    "encode_uop": ("isa/fusible/encoding.py", "encode_uop"),
    "MicroOp.__init__": ("isa/fusible/microop.py", "__init__"),
    "Located.__new__": ("<string>", "<lambda>"),
    "dataflow.transfer": ("verify/dataflow.py", "transfer"),
    "dataflow.step": ("verify/dataflow.py", "step"),
    "dataclasses.replace": ("dataclasses.py", "replace"),
    "record_key": ("persist/format.py", "record_key"),
    "AddressSpace.read": ("memory/address_space.py", "read"),
    "AddressSpace.write": ("memory/address_space.py", "write"),
    "read_u32": ("memory/address_space.py", "read_u32"),
    "write_u32": ("memory/address_space.py", "write_u32"),
    "fusion._conflict": ("translator/fusion.py", "_conflict"),
}


def call_counts(workload: str, warm: bool = False) -> dict[str, int]:
    """Calls made by one boot of ``workload``'s image: cold, or (``warm``)
    published to and warm-booted from a local repository."""
    image = assemble(gen.generate_source(SHAPES[workload], 0))

    def boot(repository: TranslationRepository | None) -> CoDesignedVM:
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(image)
        if repository is not None:
            vm.warm_start(repository)
        vm.run()
        return vm

    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as scratch:
        repository = TranslationRepository(scratch) if warm else None
        if repository is not None:
            boot(None).save_translations(repository)
        boot(repository)                    # discarded
        profile.runcall(boot, repository)
    stats = pstats.Stats(profile)
    counts = {"total calls": stats.total_calls,     # type: ignore
              **dict.fromkeys(COUNTED, 0)}
    for (path, _line, name), called in stats.stats.items():  # type: ignore
        for row, (suffix, function) in COUNTED.items():
            if name == function and path.endswith(suffix):
                counts[row] += called[1]
    return counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SHAPES))
    parser.add_argument("--warm", action="store_true")
    print(json.dumps(call_counts(**vars(parser.parse_args()))))
