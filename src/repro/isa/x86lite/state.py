"""Architected machine state for x86lite.

This is the *precise state* that the co-designed VM must be able to
materialize at any architected instruction boundary (the paper's "precise
state mapping").  It holds exactly the software-visible resources: eight
GPRs, four flags, the instruction pointer, memory, and the tiny OS-service
surface (INT 0x80) that lets example programs produce output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.memory.address_space import AddressSpace
from repro.isa.x86lite.registers import GPR_COUNT, Reg

MASK32 = 0xFFFFFFFF


class ArchException(Exception):
    """An architected exception (e.g. #DE divide error, #UD invalid opcode).

    The VMM catches these during native execution and reconstructs precise
    x86lite state before delivering them (Fig. 1b's exception edge).
    """

    def __init__(self, kind: str, addr: int) -> None:
        super().__init__(f"{kind} at {addr:#x}")
        self.kind = kind
        self.addr = addr


@dataclass
class X86State:
    """Complete architected state of an x86lite machine."""

    memory: AddressSpace = field(default_factory=AddressSpace)
    regs: List[int] = field(default_factory=lambda: [0] * GPR_COUNT)
    eip: int = 0
    cf: bool = False
    zf: bool = False
    sf: bool = False
    of: bool = False
    halted: bool = False
    exit_code: Optional[int] = None
    #: Output produced through INT 0x80 services (ints and strings).
    output: List[object] = field(default_factory=list)

    # -- register access -----------------------------------------------------

    def get_reg(self, reg: Reg, width: int = 32) -> int:
        value = self.regs[reg]
        return value & 0xFFFF if width == 16 else value

    def set_reg(self, reg: Reg, value: int, width: int = 32) -> None:
        if width == 16:
            self.regs[reg] = (self.regs[reg] & 0xFFFF0000) | (value & 0xFFFF)
        else:
            self.regs[reg] = value & MASK32

    # -- flags ---------------------------------------------------------------

    def flags_tuple(self) -> "tuple[bool, bool, bool, bool]":
        return (self.cf, self.zf, self.sf, self.of)

    def set_flags(self, cf=None, zf=None, sf=None, of=None) -> None:
        if cf is not None:
            self.cf = bool(cf)
        if zf is not None:
            self.zf = bool(zf)
        if sf is not None:
            self.sf = bool(sf)
        if of is not None:
            self.of = bool(of)

    # -- stack ----------------------------------------------------------------

    def push(self, value: int, size: int = 4) -> None:
        esp = (self.regs[Reg.ESP] - size) & MASK32
        self.regs[Reg.ESP] = esp
        if size == 2:
            self.memory.write_u16(esp, value)
        else:
            self.memory.write_u32(esp, value)

    def pop(self, size: int = 4) -> int:
        esp = self.regs[Reg.ESP]
        value = (self.memory.read_u16(esp) if size == 2
                 else self.memory.read_u32(esp))
        self.regs[Reg.ESP] = (esp + size) & MASK32
        return value

    # -- copying -------------------------------------------------------------

    def copy_architected(self, memory: Optional[AddressSpace] = None
                         ) -> "X86State":
        """Copy registers/flags/eip (sharing or replacing memory)."""
        clone = X86State(memory=memory if memory is not None
                         else self.memory)
        clone.regs = list(self.regs)
        clone.eip = self.eip
        clone.cf, clone.zf, clone.sf, clone.of = self.flags_tuple()
        clone.halted = self.halted
        clone.exit_code = self.exit_code
        clone.output = list(self.output)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regs = " ".join(f"{reg.name.lower()}={self.regs[reg]:#x}"
                        for reg in Reg)
        flags = "".join(name if value else name.lower()
                        for name, value in zip("CZSO", self.flags_tuple()))
        return f"<X86State eip={self.eip:#x} {regs} [{flags}]>"
