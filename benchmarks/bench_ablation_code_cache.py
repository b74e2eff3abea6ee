"""Ablation — code-cache capacity pressure (functional VM).

Section 1.1 warns that "a limited code cache size can cause hotspot
re-translations when a switched-out task resumes".  This ablation runs a
multi-phase program under shrinking code caches and measures flushes and
re-translation work.
"""

from repro.analysis.reporting import format_table
from repro.core import vm_soft
from repro.isa.x86lite import Reg, X86State, assemble
from repro.memory import AddressSpace, load_image
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.translator import TranslationDirectory
from repro.vmm import VMRuntime
from conftest import emit

# A program with several phases, each its own loop (working set of many
# blocks, revisited round-robin like competing tasks).
PHASED = """
start:
    mov esi, 3              ; outer passes (task switches)
passes:
""" + "\n".join(f"""
    mov ecx, 40
phase{i}:
    add eax, {i + 1}
    imul ebx, eax, {i + 2}
    and ebx, 0xFFFF
    dec ecx
    jnz phase{i}
""" for i in range(8)) + """
    dec esi
    jnz passes
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

CAPACITIES = [1 << 20, 2048, 1024, 512]


def _run(bbt_capacity):
    image = assemble(PHASED)
    state = X86State(memory=AddressSpace())
    state.regs[Reg.ESP] = DEFAULT_STACK_TOP
    state.eip = load_image(image, state.memory)
    directory = TranslationDirectory(
        state.memory, bbt_capacity=bbt_capacity,
        sbt_base=0x2000_0000 + max(bbt_capacity, 4096),
        sbt_capacity=1 << 20)
    runtime = VMRuntime(state, vm_soft().with_(hot_threshold=25),
                        directory=directory)
    runtime.run()
    assert state.halted
    return runtime, directory


def test_ablation_code_cache(benchmark):
    rows = []
    translated = {}
    for capacity in CAPACITIES:
        runtime, directory = _run(capacity)
        translated[capacity] = runtime.bbt.blocks_translated
        rows.append([capacity if capacity < (1 << 20) else "unlimited",
                     directory.bbt_cache.flushes,
                     runtime.bbt.blocks_translated,
                     runtime.bbt.instrs_translated,
                     directory.chains_made])
    table = format_table(
        ["BBT cache bytes", "flushes", "blocks translated",
         "instrs translated", "chains"],
        rows,
        title="Ablation - code-cache capacity (functional VM, phased "
              "program; smaller caches force flushes and "
              "re-translation)")
    unlimited = translated[CAPACITIES[0]]
    smallest = translated[CAPACITIES[-1]]
    notes = (f"\nre-translation amplification at "
             f"{CAPACITIES[-1]}B: {smallest / unlimited:.1f}x the "
             f"unlimited-cache translation work")
    emit("ablation_code_cache", table + notes)

    assert smallest > unlimited          # re-translation happened
    assert _run(CAPACITIES[-1])[1].bbt_cache.flushes >= 1
    assert _run(CAPACITIES[0])[1].bbt_cache.flushes == 0

    benchmark.pedantic(lambda: _run(2048), rounds=3, iterations=1)
