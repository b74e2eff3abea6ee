"""Dual-mode (two-level) frontend decoder — Fig. 4/5 of the paper.

The two-level structure mirrors the Motorola 68000-style microcode split:

* **Level 1 (vertical)** cracks an architected x86lite instruction into
  fusible micro-ops — functionally identical to the software BBT's
  decode/crack step (both call the shared cracker).
* **Level 2 (horizontal)** expands micro-ops into pipeline control
  signals.  In this model that is the point where micro-ops enter the
  backend, so level 2 is represented by handing the micro-ops onward.

In *x86-mode* both levels run: the pipeline consumes architected code
directly from memory, with no translation and no code-cache footprint —
this is what gives VM.fe its conventional-processor startup curve.
In *native-mode* level 1 is bypassed (and can be powered off): translated
code from the code cache feeds level 2 directly.

The decoder tracks its own activity (cycles each level is powered), which
Fig. 11 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.fusible.microop import MicroOp
from repro.isa.x86lite.decoder import DecodeError, decode
from repro.isa.x86lite.instruction import Instruction, \
    MAX_INSTRUCTION_LENGTH
from repro.translator.cracker import crack


@dataclass
class DecodedGroup:
    """Level-1 output for one architected instruction."""

    instr: Instruction
    uops: List[MicroOp]
    cmplx: bool          # microcoded path (VMM software assist)
    cti: bool


class DualModeDecoder:
    """Functional model of the dual-mode frontend decoder."""

    def __init__(self) -> None:
        self.x86_mode_instructions = 0
        self.complex_traps = 0

    def decode_x86(self, memory, addr: int) -> DecodedGroup:
        """x86-mode: run both decode levels on architected code."""
        window = memory.read(addr, MAX_INSTRUCTION_LENGTH)
        try:
            instr = decode(window, addr=addr)
        except DecodeError:
            raise
        self.x86_mode_instructions += 1
        result = crack(instr)
        if result.cmplx:
            self.complex_traps += 1
            return DecodedGroup(instr, [], True, result.cti)
        return DecodedGroup(instr, result.uops, False, result.cti)
