#!/usr/bin/env python
"""Translation walkthrough: from x86lite bytes to fused macro-ops.

Shows the full staged-translation pipeline on a hot loop, as the paper's
Fig. 1 describes it:

1. decode the architected basic block;
2. BBT: crack it into micro-ops with profiling prologue and exit stubs;
3. once hot, SBT: superblock formation, dead-flag elimination,
   dependence-aware reordering and macro-op fusion;
4. the installed code-cache bytes, disassembled.

Run:  python examples/translation_walkthrough.py
"""

from repro.isa.fusible import decode_stream
from repro.isa.x86lite import assemble, decode_at
from repro.memory import AddressSpace, load_image
from repro.translator import (
    BasicBlockTranslator,
    SuperblockTranslator,
    TranslationDirectory,
)
from repro.vmm.profiling import EdgeProfile

PROGRAM = """
start:
    mov ecx, 1000
loop:
    mov eax, [esi]          ; load
    lea edi, [eax+eax*2]    ; address arithmetic
    add ebx, edi            ; accumulate
    add esi, 4
    dec ecx
    jnz loop
    ret
"""


def main() -> None:
    image = assemble(PROGRAM)
    memory = AddressSpace()
    load_image(image, memory)
    loop = image.labels["loop"]

    print("=== architected basic block (x86lite) ===")
    block = [decode_at(memory, loop)]
    while not block[-1].is_control_transfer:
        block.append(decode_at(memory, block[-1].next_addr))
    for instr in block:
        raw = memory.read(instr.addr, instr.length).hex()
        print(f"  {instr.addr:#x}: {raw:<14s} {instr}")

    directory = TranslationDirectory(memory)
    bbt = BasicBlockTranslator(directory, memory, embed_profiling=True,
                               hot_threshold=8000)
    translation = bbt.translate(loop)
    print(f"\n=== BBT translation ({translation.uop_count} micro-ops, "
          f"{translation.native_len} bytes at "
          f"{translation.native_addr:#x}) ===")
    for uop in translation.uops:
        print(f"  {uop}")

    edges = EdgeProfile()
    exit_addr = block[-1].next_addr
    edges.record(loop, loop, 990)
    edges.record(loop, exit_addr, 10)
    sbt = SuperblockTranslator(directory, memory)
    optimized = sbt.translate(loop, edges)
    print(f"\n=== SBT superblock ({optimized.uop_count} micro-ops, "
          f"{optimized.fused_pairs} fused pairs, "
          f"{sbt.flags_eliminated} dead flag-writes removed) ===")
    print("('+' marks the head of a fused macro-op pair)")
    for uop in optimized.uops:
        print(f"  {uop}")

    print("\n=== installed code-cache bytes, re-disassembled ===")
    raw = memory.read(optimized.native_addr, optimized.native_len)
    for uop in decode_stream(raw):
        print(f"  {uop}")

    print(f"\nfused micro-op fraction: {optimized.fused_fraction:.1%} "
          f"(paper reports 49% dynamic for Winstone, 57% for SPECint)")


if __name__ == "__main__":
    main()
