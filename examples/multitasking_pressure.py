#!/usr/bin/env python
"""Multitasking code-cache pressure — the paper's server scenario.

Section 1.1: "Multitasking server-like systems: for large working-set
workloads, the slow startup process can be further exacerbated by
frequent context switches among resource-competing tasks.  A limited
code cache size can cause hotspot re-translations when a switched-out
task resumes."

This example runs several "tasks" (distinct program phases) round-robin
on the functional VM under progressively smaller code caches, and shows
flushes forcing re-translation; then it quantifies the same effect at
scale with the timing layer's startup scenarios (memory startup vs warm
code cache).

Run:  python examples/multitasking_pressure.py
"""

from repro import generate_workload, simulate_startup, vm_soft, \
    winstone_app
from repro.analysis.reporting import format_table
from repro.isa.x86lite import Reg, X86State, assemble
from repro.memory import AddressSpace, load_image
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.timing import Scenario
from repro.translator import TranslationDirectory
from repro.vmm import VMRuntime

TASKS = 6
SWITCHES = 4

PROGRAM = """
start:
    mov esi, {switches}
switching:
""" + "\n".join(f"""
    mov ecx, 30
task{i}:
    add eax, {i + 1}
    imul ebx, eax, {i + 3}
    xor ebx, eax
    and ebx, 0xFFFF
    dec ecx
    jnz task{i}
""" for i in range(TASKS)) + """
    dec esi
    jnz switching
    mov eax, 0
    mov ebx, 0
    int 0x80
"""


def run_functional(bbt_capacity):
    image = assemble(PROGRAM.format(switches=SWITCHES))
    state = X86State(memory=AddressSpace())
    state.regs[Reg.ESP] = DEFAULT_STACK_TOP
    state.eip = load_image(image, state.memory)
    directory = TranslationDirectory(
        state.memory, bbt_capacity=bbt_capacity,
        sbt_base=0x2000_0000 + max(bbt_capacity, 4096),
        sbt_capacity=1 << 20)
    runtime = VMRuntime(state, vm_soft().with_(hot_threshold=50),
                        directory=directory)
    runtime.run()
    return runtime, directory


def main() -> None:
    print(f"functional VM: {TASKS} tasks x {SWITCHES} context switches, "
          "shrinking BBT code cache\n")
    rows = []
    for capacity in (1 << 20, 4096, 1024, 640):
        runtime, directory = run_functional(capacity)
        rows.append([
            "unlimited" if capacity >= (1 << 20) else f"{capacity}B",
            directory.bbt_cache.flushes,
            runtime.bbt.blocks_translated,
            runtime.bbt.instrs_translated,
        ])
    print(format_table(
        ["code cache", "flushes", "blocks translated",
         "instrs translated"], rows))
    print("\nsmaller cache -> flushes on task switch -> the same blocks "
          "translated over and over\n")

    print("timing layer: resuming a switched-out task (Word, 100M "
          "instrs)\n")
    app = winstone_app("Word")
    workload = generate_workload(app, dyn_instrs=100_000_000, seed=0)
    rows = []
    for scenario, label in [
            (Scenario.MEMORY_STARTUP,
             "translations evicted (re-translate everything)"),
            (Scenario.CODE_CACHE_WARM,
             "translations survived (caches cold only)"),
            (Scenario.STEADY_STATE, "nothing lost")]:
        result = simulate_startup(vm_soft(), workload, scenario)
        rows.append([label, result.total_cycles / 1e6,
                     result.breakdown.get("bbt_translation", 0.0) / 1e6])
    print(format_table(
        ["resume scenario", "total Mcycles", "translation Mcycles"],
        rows))
    print("\nkeeping translations across switches removes the "
          "re-translation tax — and the hardware assists shrink the "
          "tax itself (see examples/startup_comparison.py).")


if __name__ == "__main__":
    main()
