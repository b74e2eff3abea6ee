#!/usr/bin/env python
"""Exact call counts of one boot or herd: the table every perf PR quotes.

    python tools/callcounts.py wide_cold [--warm]   # cold, or from a store
    python tools/callcounts.py herd     # what a herd's stores are asked
    python tools/callcounts.py publish  # writes of one wide_cold publish,
                                        # and what one capture re-derives
    python tools/callcounts.py imports served_boot  # what its process loads
    python tools/callcounts.py templates [--source]  # the template table
    python tools/callcounts.py loops [--source]  # the loops compiled

Boots one ``perf/gen.py`` image under cProfile — or runs the herd of
``perf/workloads.py``, counting the calls its servers and stores make,
all in this process — after one discarded run (lazy set-up, the
template table), and prints the calls of a fixed list of functions as
one JSON line: counts repeat exactly, so parent and change compare
digit by digit.  Seed 0; writes only a temporary store.
``imports`` is the one mode that is not a count: it runs one set-up and
one sample of a ``perf/`` workload in a fresh interpreter, which imports
what ``perf/run.py --workload`` imports, and prints that process's peak
resident set, the third-party packages it loaded and the
timing-simulator modules (``TIMING_LAYER``) among its modules.
``templates`` cold-boots every seed program and both ``perf/gen.py``
shapes and prints what the template table learned: shapes, templates,
the functions compiled from them and the compiles that took (a
learned template's shape function of that kind, anew);
``--source`` then prints the text of every compiled function, which
is all that ``exec`` built.  ``loops`` boots the same programs cold,
each shape warm too (as ``served_boot`` boots), and quicksort at the
herd's hot threshold, cold and warm, and prints per boot the loops the
machine compiled, the compiles of a head compiled before (after a
write-watch drop), the iterations run compiled and the process time
the compiles took; ``--source`` prints each compiled loop's text.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pathlib
import pstats
import subprocess
import sys
import sysconfig
import tempfile
import time
from unittest import mock

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perf")]

import gen                                                # noqa: E402
import workloads                                          # noqa: E402
from repro.cacheserver.server import CacheServer          # noqa: E402
from repro.core import CoDesignedVM, vm_soft              # noqa: E402
from repro.fleet import FleetScenario                     # noqa: E402
from repro.isa.fusible import FusibleMachine              # noqa: E402
from repro.isa.fusible import template                    # noqa: E402
from repro.isa.x86lite import assemble                    # noqa: E402
from repro.persist import (TranslationRepository,  # noqa: E402
                           capture_translations, repository)
from repro.persist.lease import WriterLease               # noqa: E402
from repro.translator import emit, templates              # noqa: E402
from repro.verify.cfg import build_cfg                    # noqa: E402
from repro.verify.rules import VerifyContext              # noqa: E402
from repro.verify.verifier import run_rules               # noqa: E402
from repro.workloads.programs import PROGRAMS             # noqa: E402

SHAPES = {"hot_loop": gen.HOT_LOOP, "wide_cold": gen.WIDE_COLD}
#: row -> (end of the file name, function name) as cProfile spells them
#: (a namedtuple's ``__new__`` (``Located``'s) is a ``<lambda>`` in a
#: string, a C function sits in ``~``: ``hashlib.sha256`` is OpenSSL's),
#: or the function itself where its file defines others of its name
COUNTED = {
    "decode": ("isa/x86lite/decoder.py", "decode"),
    "crack": ("translator/cracker.py", "crack"),
    "decode_uop": ("isa/fusible/encoding.py", "decode_uop"),
    "encode_uop": ("isa/fusible/encoding.py", "encode_uop"),
    "MicroOp.__init__": ("isa/fusible/microop.py", "__init__"),
    "Located.__new__": ("<string>", "<lambda>"),
    "dataflow.transfer": ("verify/dataflow.py", "transfer"),
    "dataflow.step": ("verify/dataflow.py", "step"),
    "dataclasses.replace": ("dataclasses.py", "replace"),
    "JSON encodes": ("json/encoder.py", "encode"),
    "SHA-256": ("~", "<built-in method _hashlib.openssl_sha256>"),
    "AddressSpace.read": ("memory/address_space.py", "read"),
    "AddressSpace.write": ("memory/address_space.py", "write"),
    "read_u32": ("memory/address_space.py", "read_u32"),
    "write_u32": ("memory/address_space.py", "write_u32"),
    "fusion._conflict": ("translator/fusion.py", "_conflict"),
    "VerifyContext": VerifyContext.__init__,
    "build_cfg": build_cfg,
    "run_rules": run_rules}


#: rows of a capture's counts: the walk and the template fills a record's
#: source and prologue cost when capture derives them again (a compiled
#: template serves through its ``fill`` or its shape's ``body`` /
#: ``ending``)
CAPTURED = {
    "shape_at": ("translator/templates.py", "shape_at"),
    "template fills": ("<template>", "fill", "body", "ending"),
    "fetch": ("translator/templates.py", "fetch")}


def counted(stats: pstats.Stats, rows: dict) -> dict[str, int]:
    """The calls of each row's function in ``stats``: a row names it by
    its code object, or by the end of its file name and its name(s)."""
    counts = dict.fromkeys(rows, 0)
    for (path, line, name), called in stats.stats.items():  # type: ignore
        for row, where in rows.items():
            if callable(where):
                code = where.__code__
                found = (path, line, name) == \
                    (code.co_filename, code.co_firstlineno, code.co_name)
            else:
                found = name in where[1:] and path.endswith(where[0])
            if found:
                counts[row] += called[1]
    return counts


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
    return {"total calls": stats.total_calls,       # type: ignore
            **counted(stats, COUNTED)}


def _site(site: str, part: str):
    """Weigh a ``fault_point`` visit: 1 at ``site`` on a path holding
    ``part``, else 0."""
    return lambda args, kwargs: int(args[0] == site
                                    and part in kwargs["path"])


#: rows of the I/O counts: (row, owner, attribute, weight of one call
#: from its ``(args, kwargs)``; None: 1)
WRITES = (
    ("journaled writes", repository, "fault_point",
     _site("repo.write", "")),
    ("os.fsync", os, "fsync", None))
HERD_ROWS = WRITES + (
    ("meta reads", repository, "fault_point", _site("repo.read", "meta.json")),
    ("lease attempts", WriterLease, "try_acquire", None),
    ("requests dispatched", CacheServer, "dispatch", None),
    ("connections accepted", CacheServer, "_admit", None),
    ("packs written", repository, "fault_point", _site("repo.write", ".pack")),
    ("records written", TranslationRepository, "_write_pack",
     lambda args, _kwargs: len(args[1])),
    # what the servers parse and validate: every record a push carries
    ("records received", CacheServer, "_op_push",
     lambda args, _kwargs: len(args[1].get("records") or ())))


def io_counts(rows, run) -> dict[str, int]:
    """The weighed calls of ``rows`` that ``run()`` makes, on every
    thread of this process."""
    seen: dict[str, list] = {row: [] for row, *_call in rows}

    def counting(row, function, weigh):
        def counted(*args, **kwargs):
            seen[row].append(1 if weigh is None          # atomic: no lock
                             else weigh(args, kwargs))
            return function(*args, **kwargs)
        return counted

    with contextlib.ExitStack() as undo:
        for row, owner, name, weigh in rows:
            undo.enter_context(mock.patch.object(
                owner, name, counting(row, getattr(owner, name), weigh)))
        run()
    return {row: sum(calls) for row, calls in seen.items()}


def herd_counts() -> dict[str, int]:
    """What one herd asks of its stores and servers.  Every
    ``HERD_ROWS`` row is a server or store call, and those run in this
    process; the followers boot in forked processes, whose own calls no
    patch here sees."""
    with tempfile.TemporaryDirectory() as tmp:
        herd = workloads.Herd(0, tmp)
        herd.setup()                        # runs one herd, discarded
        return io_counts(HERD_ROWS, herd.run_herd)


def capture_counts(workload: str) -> dict[str, int]:
    """The ``CAPTURED`` calls of one capture of a cold ``workload``
    boot's translations."""
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(gen.generate_source(SHAPES[workload], 0)))
    vm.run()
    profile = cProfile.Profile()
    profile.runcall(capture_translations, vm.runtime.directory,
                    vm.state.memory)
    return counted(pstats.Stats(profile), CAPTURED)


def publish_counts() -> dict[str, int]:
    """The journaled writes and fsyncs of one ``wide_cold`` publish to a
    fresh local store, then each shape's capture counts."""
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(gen.generate_source(gen.WIDE_COLD, 0)))
    vm.run()
    with tempfile.TemporaryDirectory() as tmp:
        counts = io_counts(WRITES, lambda: vm.save_translations(
            TranslationRepository(tmp)))
    for workload in SHAPES:
        for row, calls in capture_counts(workload).items():
            counts[f"{workload} capture: {row}"] = calls
    return counts


def template_table() -> tuple[dict[str, int], list]:
    """What cold boots of every seed program and both ``perf/gen.py``
    shapes (seed 0) teach the template table of this process, and every
    function compiled from it: each shape's ``body`` and ``ending``
    (its templates inlined), and the ``fill`` of the exit stub, the
    prologue and the chaining JMP."""
    compiles, define = [], template.define

    def counting(*args, **names):
        compiles.append(args[0])
        return define(*args, **names)

    sources = [*PROGRAMS.values(),
               *(gen.generate_source(shape, 0) for shape in SHAPES.values())]
    with mock.patch.object(template, "define", counting), \
            mock.patch.object(templates, "define", counting):
        for source in sources:
            vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            vm.load(assemble(source))
            vm.run()
    shapes = [shape for shape in templates._SHAPES.values()
              if isinstance(shape, templates.Shape)]
    learned = [learned for shape in shapes
               for learned in shape.bodies + shape.endings]
    functions = [function for shape in shapes
                 for function in (shape.body, shape.ending)
                 if hasattr(function, "source")] + [
        served.fill for served in (emit._STUB, emit._PROLOGUE, emit._JUMP)]
    return {"shapes": len(shapes), "templates": len(learned),
            "compiled functions": len(functions),
            "compiles while booting": len(compiles)}, functions


def loop_table() -> tuple[dict[str, dict], list[str]]:
    """The loops each boot of ``loops`` compiled (see the module
    docstring), and the text of every compile."""
    compiles: list = []         # (machine, head, process seconds, text)
    compile_loop = FusibleMachine._compile_loop

    def timed(machine, items):
        start = time.process_time()
        loop = compile_loop(machine, items)
        compiles.append((machine, items[0][1], time.process_time() - start,
                         loop.source))
        return loop

    boots = [(name, source, 50, False) for name, source in PROGRAMS.items()]
    for name, shape in SHAPES.items():
        source = gen.generate_source(shape, 0)
        boots += [(name, source, 50, False), (f"{name} --warm", source, 50,
                                               True)]
    herd = FleetScenario.hot_threshold
    boots += [(f"quicksort @{herd}{warm}", PROGRAMS["quicksort"], herd,
               bool(warm)) for warm in ("", " --warm")]
    table = {}
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(FusibleMachine, "_compile_loop", timed):
        for number, (name, source, threshold, warm) in enumerate(boots):
            image = assemble(source)
            repository = TranslationRepository(f"{scratch}/{number}")
            for boot_warm in (False, True) if warm else (False,):
                vm = CoDesignedVM(vm_soft(), hot_threshold=threshold)
                vm.load(image)
                if boot_warm:
                    vm.warm_start(repository)
                vm.run()
                vm.save_translations(repository)
            machine = vm.runtime.machine
            mine = [entry for entry in compiles if entry[0] is machine]
            heads = {head for _machine, head, _s, _t in mine}
            table[name] = {
                "loops": len(heads), "recompiles": len(mine) - len(heads),
                "iterations": machine.loop_iterations,
                "compile_ms": round(1e3 * sum(s for _m, _h, s, _t in mine),
                                    2)}
    return table, [text for _m, _h, _s, text in compiles]


#: module prefixes of the timing simulator, which no boot calls
TIMING_LAYER = ("repro.timing", "repro.analysis", "repro.workloads.trace",
                "repro.workloads.winstone", "repro.workloads.spec")

#: the child of ``imports``: one set-up and one sample of the workload
#: named by argv[1], as ``perf/run.py --workload`` makes them; prints its
#: peak RSS and the file of each module it loaded.  The peak is VmHWM,
#: the peak of the child's own address space: ``ru_maxrss`` keeps the
#: spawning process's peak across exec, so here it would read this
#: tool's own size whenever that is the larger
FOOTPRINT = """
import json, sys, tempfile
from harness import WORKLOADS
with tempfile.TemporaryDirectory() as store:
    workload = WORKLOADS[sys.argv[1]](0, store)
    workload.setup()
    workload.sample()
    workload.close()
with open("/proc/self/status") as status:
    peak_kb = int(status.read().split("VmHWM:")[1].split()[0])
print(json.dumps([peak_kb, {name: getattr(module, "__file__", None)
                            for name, module in sys.modules.items()}]))
"""


def import_footprint(workload: str) -> dict:
    """Peak RSS, third-party packages and timing-layer modules of a
    fresh process that runs ``FOOTPRINT`` for ``workload``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO / "perf")]))
    peak_kb, modules = json.loads(subprocess.run(
        [sys.executable, "-c", FOOTPRINT, workload], env=env, check=True,
        capture_output=True, text=True).stdout)
    installed = tuple({sysconfig.get_paths()[key]
                       for key in ("purelib", "platlib")})
    return {"peak_rss_mb": round(peak_kb / 1024, 1),
            "third-party": sorted({name.partition(".")[0]
                                   for name, path in modules.items()
                                   if path and path.startswith(installed)}),
            "timing layer": sorted(name for name in modules
                                   if name.startswith(TIMING_LAYER))}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*SHAPES, "herd", "publish",
                                             "imports", "templates",
                                             "loops"])
    parser.add_argument("imported", nargs="?", choices=workloads.WORKLOADS,
                        help="with imports: the perf/ workload to run")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--source", action="store_true",
                        help="with templates or loops: every compiled "
                        "text too")
    args = parser.parse_args()
    if (args.workload == "imports") != (args.imported is not None):
        parser.error("a workload after imports, and only there")
    if args.source and args.workload not in ("templates", "loops"):
        parser.error("--source goes with templates or loops")
    if args.workload == "templates":
        counts, functions = template_table()
        print(json.dumps(counts))
        if args.source:
            print("\n".join(function.source for function in functions))
        sys.exit()
    if args.workload == "loops":
        table, texts = loop_table()
        for name, row in table.items():
            print(f"{name:22} {json.dumps(row)}")
        if args.source:
            print("\n".join(texts))
        sys.exit()
    print(json.dumps(import_footprint(args.imported) if args.imported
                     else herd_counts() if args.workload == "herd"
                     else publish_counts() if args.workload == "publish"
                     else call_counts(args.workload, args.warm)))
