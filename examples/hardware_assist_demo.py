#!/usr/bin/env python
"""Hardware assists in action: XLTx86 and the HAloop.

Demonstrates Section 4's two proposals at the functional level:

* the **XLTx86** backend unit (Table 1) decoding single instructions
  into Fdst with CSR flags;
* the **HAloop** (Fig. 6a) — the VMM's hardware-accelerated BBT inner
  loop — running as *native fusible code* on the micro-op machine and
  depositing a translation into the code cache.

Run:  python examples/hardware_assist_demo.py
"""

from repro.hwassist import XLTx86Unit
from repro.hwassist.haloop import run_haloop
from repro.isa.fusible import FusibleMachine, decode_stream
from repro.isa.x86lite import assemble
from repro.memory import AddressSpace, load_image

PROGRAM = """
start:
    mov eax, [esi]
    lea ebx, [eax+eax*4]
    add ebx, 7
    shl ebx, 2
    ret
"""

HALOOP_ADDR = 0x1000_0000
CODE_CACHE = 0x2000_0000


def show_xltx86() -> None:
    print("=== XLTx86 Fdst, Fsrc (Table 1) ===")
    unit = XLTx86Unit()
    for text, raw in [
            ("add eax, ebx", b"\x01\xd8"),
            ("mov eax, [ebx+ecx*4+16]", b"\x8b\x44\x8b\x10"),
            ("ret", b"\xc3"),
            ("rep movsd (complex!)", b"\xf3\xa5"),
            ("div ebx   (complex!)", b"\xf7\xf3")]:
        result = unit.translate(raw)
        flags = []
        if result.flag_cmplx:
            flags.append("CMPLX")
        if result.flag_cti:
            flags.append("CTI")
        print(f"  {text:26s} ilen={result.x86_ilen:2d} "
              f"uop_bytes={result.uop_byte_count:2d} "
              f"CSR flags=[{','.join(flags) or '-'}]")
        for uop in result.uops:
            print(f"      {uop}")
    print()


def show_haloop() -> None:
    print("=== HAloop (Fig. 6a) translating a block natively ===")
    image = assemble(PROGRAM)
    memory = AddressSpace()
    entry = load_image(image, memory)
    machine = FusibleMachine(memory)
    run = run_haloop(machine, HALOOP_ADDR, entry, CODE_CACHE)
    print(f"  translated {run.instructions_translated} instructions, "
          f"emitted {run.uop_bytes_emitted} micro-op bytes, stopped on "
          f"{run.stopped_on}")
    print(f"  VMM work: {run.uops_executed} micro-ops "
          f"({run.uops_executed / run.instructions_translated:.1f} per "
          f"instruction; software Delta_BBT is ~105)")
    print("  code cache contents:")
    for uop in decode_stream(run.code_bytes):
        print(f"      {uop}")
    print()


def main() -> None:
    show_xltx86()
    show_haloop()


if __name__ == "__main__":
    main()
