"""The correctness oracle: the plain interpreter's architected state.

Every boot the benchmark times is compared with what
:class:`repro.interp.interpreter.Interpreter` computes on the same
image, never with the translator under test.
"""

from __future__ import annotations

from typing import Dict

from repro.interp.interpreter import Interpreter
from repro.isa.x86lite.registers import Reg
from repro.isa.x86lite.state import X86State
from repro.memory.address_space import AddressSpace
from repro.memory.loader import DEFAULT_STACK_TOP, load_image


def architected_state(state: X86State) -> Dict:
    return {
        "exit_code": state.exit_code,
        "output": list(state.output),
        "regs": list(state.regs),
        "flags": [state.cf, state.zf, state.sf, state.of],
    }


def fresh_state(image) -> X86State:
    """Architected state at program entry, as ``CoDesignedVM.load``
    sets it up."""
    state = X86State(memory=AddressSpace())
    state.regs[Reg.ESP] = DEFAULT_STACK_TOP
    state.eip = load_image(image, state.memory)
    return state


def interpreter_reference(image) -> Dict:
    """Run ``image`` to exit under the interpreter alone."""
    state = fresh_state(image)
    instructions = Interpreter(state).run()
    reference = architected_state(state)
    reference["instructions"] = instructions
    return reference


def mismatches(state: X86State, reference: Dict) -> list:
    """Names of the architected fields where ``state`` differs."""
    got = architected_state(state)
    return [key for key, value in got.items() if value != reference[key]]
