"""Interpreter tests on whole programs."""

import pytest

from repro.interp import Interpreter, InterpreterLimit
from repro.isa.x86lite import Reg, assemble
from tests.conftest import make_state, run_source

FIB = """
start:
    mov eax, 0      ; fib(0)
    mov ebx, 1      ; fib(1)
    mov ecx, 10     ; iterations
loop:
    mov edx, eax
    add edx, ebx
    mov eax, ebx
    mov ebx, edx
    dec ecx
    jnz loop
    hlt
"""

FACTORIAL_RECURSIVE = """
start:
    push 6
    call fact
    hlt
fact:                   ; fact(n) -> eax
    mov eax, [esp+4]
    cmp eax, 1
    jle base
    dec eax
    push eax
    call fact
    mov ebx, [esp+4]
    imul eax, ebx
    ret 4
base:
    mov eax, 1
    ret 4
"""

MEMCPY = """
start:
    mov esi, src
    mov edi, 0x600000
    mov ecx, 4
copy:
    mov eax, [esi]
    mov [edi], eax
    add esi, 4
    add edi, 4
    dec ecx
    jnz copy
    hlt
src: .dd 10, 20, 30, 40
"""


class TestPrograms:
    def test_fibonacci(self):
        state = run_source(FIB)
        assert state.regs[Reg.EAX] == 55  # fib(10)

    def test_recursive_factorial(self):
        state = run_source(FACTORIAL_RECURSIVE)
        assert state.regs[Reg.EAX] == 720

    def test_memcpy_loop(self):
        state = run_source(MEMCPY)
        for offset, value in ((0, 10), (4, 20), (8, 30), (12, 40)):
            assert state.memory.read_u32(0x600000 + offset) == value

    def test_instruction_count(self):
        image = assemble(FIB)
        state = make_state(image)
        interp = Interpreter(state)
        executed = interp.run()
        # 3 setup + 10 iterations * 6 + hlt
        assert executed == 3 + 60 + 1


class TestInterpreterMechanics:
    def test_step_returns_instruction(self):
        image = assemble("mov eax, 5\nhlt")
        state = make_state(image)
        interp = Interpreter(state)
        instr = interp.step()
        assert str(instr) == "mov eax, 0x5"

    def test_limit_raises(self):
        image = assemble("spin: jmp spin")
        state = make_state(image)
        with pytest.raises(InterpreterLimit):
            Interpreter(state).run(max_instructions=100)

    def test_decode_cache_hit_returns_same_object(self):
        image = assemble("top: dec eax\njmp top")
        state = make_state(image)
        state.regs[Reg.EAX] = 10
        interp = Interpreter(state)
        first = interp.step()
        interp.step()
        again = interp.step()
        assert first is again

    def test_invalidate_decodes(self):
        image = assemble("top: dec eax\njmp top")
        state = make_state(image)
        interp = Interpreter(state)
        first = interp.step()
        interp.invalidate_decodes()
        interp.step()  # jmp
        again = interp.step()
        assert first is not again
        assert str(first) == str(again)
