#!/usr/bin/env python
"""Observability smoke gate (the ``make trace-smoke`` target).

Three executable claims from ``docs/observability.md``:

1. **Exports are well-formed**: a traced run of every seed workload
   produces a Perfetto-loadable document that passes the checked-in
   ``trace_schema.json`` and whose per-phase cycle totals sum exactly
   to the run total (conservation).
2. **Traced runs are deterministic**: running the same workload twice
   yields byte-identical serialized traces.
3. **Disabled tracing is near-zero cost**: the default (untraced) hot
   path pays one pointer test per hook site, so an untraced run of the
   throughput hot loop must not be measurably slower than a traced run
   of the same loop — the gate allows a few percent of timer noise.

Run directly (``python tools/trace_smoke.py``) or via ``make verify``.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.core.config import vm_soft                    # noqa: E402
from repro.core.vm import CoDesignedVM                   # noqa: E402
from repro.isa.x86lite.assembler import assemble         # noqa: E402
from repro.obs.export import (                           # noqa: E402
    serialize_trace,
    validate_trace,
)
from repro.workloads.programs import PROGRAMS            # noqa: E402

HOT_THRESHOLD = 10

#: Same hot loop as benchmarks/bench_functional_throughput.py.
HOT_LOOP = """
start:
    mov ecx, 20000
loop:
    add eax, ecx
    xor eax, 0x5A5A
    lea ebx, [eax+ecx*2]
    dec ecx
    jnz loop
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

#: Disabled-tracing overhead allowance (timer noise included).
OVERHEAD_ALLOWANCE = 1.05
TIMING_ROUNDS = 15
#: Runs of the hot loop timed together as one sample.
SAMPLE_BOOTS = 5


def _traced_export(source: str):
    vm = CoDesignedVM(vm_soft().with_(trace=True),
                      hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(source))
    vm.run()
    return vm.export_trace()


def check_exports() -> int:
    failures = 0
    for name, source in sorted(PROGRAMS.items()):
        doc = _traced_export(source)
        problems = list(validate_trace(doc))
        if not doc["traceEvents"]:
            problems.append("no events emitted")
        if not doc.get("conserved"):
            problems.append("ledger not conserved")
        attributed = sum(doc["phase_cycles"].values())
        if abs(attributed - doc["total_cycles"]) > \
                1e-6 * max(doc["total_cycles"], 1.0):
            problems.append(f"phase sum {attributed} != "
                            f"total {doc['total_cycles']}")
        status = "ok" if not problems else "FAIL"
        print(f"{status}  {name:14s} {len(doc['traceEvents']):4d} "
              f"event(s), {doc['total_cycles']:12.0f} cycles")
        for problem in problems:
            print(f"      {problem}")
        failures += bool(problems)
    return failures


def check_determinism() -> int:
    name = "quicksort"
    first = serialize_trace(_traced_export(PROGRAMS[name]))
    second = serialize_trace(_traced_export(PROGRAMS[name]))
    if first != second:
        print(f"FAIL  {name}: traced runs are not byte-identical")
        return 1
    print(f"ok    {name}: {len(first)} byte(s), byte-identical "
          f"across runs")
    return 0


def _one_hot_loop(image, trace: bool) -> float:
    """Seconds spent in ``SAMPLE_BOOTS`` runs of the hot loop."""
    elapsed = 0.0
    for _ in range(SAMPLE_BOOTS):
        vm = CoDesignedVM(vm_soft().with_(trace=trace), hot_threshold=50)
        vm.load(image)
        started = time.perf_counter()
        vm.run(max_uops=80_000_000)
        elapsed += time.perf_counter() - started
    return elapsed


def check_overhead() -> int:
    # warmed-up, interleaved samples; the untraced path must not be
    # slower than the traced one beyond timer noise, since tracing only
    # adds work on top of the shared `if tracer is not None` hook sites.
    # One run is tens of milliseconds (the native machine replays
    # pre-decoded runs), short enough for a busy host to double it: a
    # sample is several runs, and since the two samples of a round share
    # the host's mood, the gate reads the median of the per-round
    # quotients, not a quotient of medians
    image = assemble(HOT_LOOP)
    _one_hot_loop(image, trace=False)    # warm caches / allocator
    _one_hot_loop(image, trace=True)
    untraced_samples, traced_samples = [], []
    for _ in range(TIMING_ROUNDS):
        untraced_samples.append(_one_hot_loop(image, trace=False))
        traced_samples.append(_one_hot_loop(image, trace=True))
    ratio = statistics.median(
        untraced / traced
        for untraced, traced in zip(untraced_samples, traced_samples))
    status = "ok" if ratio <= OVERHEAD_ALLOWANCE else "FAIL"
    print(f"{status}    hot loop: untraced "
          f"{statistics.median(untraced_samples) * 1e3:.1f} ms, traced "
          f"{statistics.median(traced_samples) * 1e3:.1f} ms "
          f"(untraced/traced = {ratio:.3f} over {TIMING_ROUNDS} rounds, "
          f"allowed <= {OVERHEAD_ALLOWANCE})")
    return int(ratio > OVERHEAD_ALLOWANCE)


def main() -> int:
    failures = 0
    print("== trace exports (schema + conservation)")
    failures += check_exports()
    print("\n== determinism")
    failures += check_determinism()
    print("\n== disabled-tracing overhead")
    failures += check_overhead()
    print(f"\n{'TRACE SMOKE FAILED' if failures else 'trace smoke ok'}"
          f" ({failures} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
