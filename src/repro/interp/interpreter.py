"""Decode-and-execute interpreter for x86lite.

Three roles, mirroring the paper:

1. Initial emulation engine for the *Interp + SBT* staged configuration
   (the strategy of Transmeta Crusoe / early DAISY, evaluated in Fig. 2).
2. Reference semantics for differential testing of every translation path.
3. Precise-state reconstruction: the VMM re-interprets from a block entry
   to an exception point to materialize exact architected state (Fig. 1b).

The interpreter caches decoded instructions by address; the paper's
emulation-speed discussion (10–100x slower than native) refers to real
interpreters that re-dispatch per instruction, which our *timing* model
accounts for separately via cycles-per-instruction costs.
"""

from __future__ import annotations

import logging
from typing import Dict

from repro.isa.x86lite.decoder import decode
from repro.isa.x86lite.instruction import Instruction, MAX_INSTRUCTION_LENGTH
from repro.isa.x86lite.semantics import execute
from repro.isa.x86lite.state import X86State

log = logging.getLogger("repro.interp")


class InterpreterLimit(Exception):
    """Raised when a step budget is exhausted (runaway-program guard)."""


class Interpreter:
    """Instruction-at-a-time emulator for x86lite programs."""

    def __init__(self, state: X86State) -> None:
        self.state = state
        self.instructions_executed = 0
        self._decode_cache: Dict[int, Instruction] = {}

    def fetch_decode(self, addr: int) -> Instruction:
        """Fetch and decode the instruction at ``addr``."""
        cached = self._decode_cache.get(addr)
        if cached is not None:
            return cached
        window = self.state.memory.read(addr, MAX_INSTRUCTION_LENGTH)
        instr = self._decode_cache[addr] = decode(window, addr=addr)
        return instr

    def invalidate_decodes(self) -> None:
        """Drop cached decodes (after self-modifying-code writes)."""
        if self._decode_cache:
            log.debug("decode cache invalidated (%d entries)",
                      len(self._decode_cache))
        self._decode_cache.clear()

    def step(self) -> Instruction:
        """Execute one instruction; returns the decoded instruction."""
        instr = self.fetch_decode(self.state.eip)
        execute(instr, self.state)
        self.instructions_executed += 1
        return instr

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until HLT/exit; returns the number of instructions executed."""
        start = self.instructions_executed
        while not self.state.halted:
            if self.instructions_executed - start >= max_instructions:
                raise InterpreterLimit(
                    f"exceeded {max_instructions} instructions")
            self.step()
        return self.instructions_executed - start
