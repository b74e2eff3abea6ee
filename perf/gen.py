"""Seeded x86lite program generator for the benchmark workloads.

The repo under test only ever receives the assembled image; the source
text is made here.

A program is ``blocks`` basic blocks of ``BODY`` straight-line
instructions, each closed by ``test ebp, imm`` + ``jz bail``, wrapped in
a counted loop of ``passes`` passes.  Its *structure* is a constant of
the shape: which instruction kinds a block holds and in what order,
which operand form each takes, and which register *role* each operand
names come from ``random.Random(STRUCTURE_SEED)``.  The ``--seed``
decides the *values*: which machine register plays which role, every
immediate, every data offset, every branch mask.  So programs of
different seeds differ byte for byte, yet decode, crack, fuse and
execute the same number of instructions and micro-ops, and a benchmark
run on seed 7 is comparable with one on seed 3.  Three choices keep the
values from leaking into the structure:

* immediates lie in ``[0x100, 0xFFF]``: always the imm32 x86 form,
  always inside the 13-bit micro-op immediate;
* data offsets stay below 128 (disp8 form) and branch masks below
  ``0x800``;
* control flow is data independent: ``ebp`` holds ``BRANCH_BITS`` and
  every mask is a non-empty subset of those bits, so ``jz bail`` is
  never taken.  ``bail`` exits with code 99, which the interpreter
  reference would expose.

Run ``python perf/gen.py`` for the self-check of seeds 0-3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: instructions in a block body, and their fixed mix
BODY_MIX = ("add", "add", "sub", "xor", "xor", "lea", "load", "store")
BODY = len(BODY_MIX)

#: seed of the structure shared by every program of a shape
STRUCTURE_SEED = 2006

DATA_BASE = 0x600000
DATA_SLOTS = 32
BRANCH_BITS = 0x55555555
BAIL_EXIT_CODE = 99

#: body registers; ecx counts passes, edi holds DATA_BASE, ebp the
#: branch constant, esp the stack
_REGS = ("eax", "ebx", "edx", "esi")

_PRINT = ["    mov eax, 1", "    int 0x80"]
#: followed by ``mov ecx, passes`` and one seeded ``mov`` per body register
_PROLOGUE = [f"    mov edi, {DATA_BASE}", f"    mov ebp, {BRANCH_BITS}"]
_PROLOGUE_LENGTH = len(_PROLOGUE) + 1 + len(_REGS)
_LOOP_CLOSE = ["    dec ecx", "    jnz pass_top"]
#: print all four body registers (the print syscall number clobbers
#: eax, so it is saved first), then exit 0
_EPILOGUE = (["    push eax"] + _PRINT
             + ["    mov ebx, edx"] + _PRINT
             + ["    mov ebx, esi"] + _PRINT
             + ["    pop ebx"] + _PRINT
             + ["    mov eax, 0", "    mov ebx, 0", "    int 0x80"])
_BAIL = ["    mov eax, 0", f"    mov ebx, {BAIL_EXIT_CODE}", "    int 0x80"]


@dataclass(frozen=True)
class Shape:
    """Static and dynamic size of a generated program."""

    blocks: int
    passes: int

    @property
    def static_instructions(self) -> int:
        return (_PROLOGUE_LENGTH + self.blocks * (BODY + 2)
                + len(_LOOP_CLOSE) + len(_EPILOGUE) + len(_BAIL))

    @property
    def dynamic_instructions(self) -> int:
        per_pass = self.blocks * (BODY + 2) + len(_LOOP_CLOSE)
        return _PROLOGUE_LENGTH + self.passes * per_pass + len(_EPILOGUE)


#: execution dominates: 4 blocks run 500 times each
HOT_LOOP = Shape(blocks=4, passes=500)
#: translation dominates: 200 blocks run once each (the paper's Fig. 3)
WIDE_COLD = Shape(blocks=200, passes=1)


def _body_line(kind: str, structure: random.Random,
               values: random.Random, regs) -> str:
    """One body instruction: roles and operand form from ``structure``,
    immediates and offsets from ``values``."""
    dst, src, index = (regs[structure.randrange(len(regs))]
                       for _ in range(3))
    immediate_form = structure.random() < 0.5
    scale = structure.choice((2, 4))
    offset = 4 * values.randrange(1, DATA_SLOTS)
    immediate = values.randrange(0x100, 0x1000)
    if kind == "load":
        return f"    mov {dst}, [edi+{offset}]"
    if kind == "store":
        return f"    mov [edi+{offset}], {src}"
    if kind == "lea":
        return f"    lea {dst}, [{src}+{index}*{scale}+{offset}]"
    if immediate_form:
        return f"    {kind} {dst}, {immediate}"
    return f"    {kind} {dst}, {src}"


def _branch_mask(values: random.Random) -> int:
    """A non-empty subset of the BRANCH_BITS below 0x800."""
    mask = 0
    for bit in values.sample(range(0, 11, 2), values.randrange(1, 4)):
        mask |= 1 << bit
    return mask


def generate_source(shape: Shape, seed: int) -> str:
    """Assembly text of one program of ``shape`` for ``seed``."""
    structure = random.Random(STRUCTURE_SEED)
    values = random.Random(seed)
    regs = list(_REGS)
    values.shuffle(regs)             # which register plays which role
    lines = ["start:"] + _PROLOGUE + [f"    mov ecx, {shape.passes}"]
    for reg in _REGS:
        lines.append(f"    mov {reg}, {values.randrange(1, 0x7FFFFFFF)}")
    lines.append("pass_top:")
    for index in range(shape.blocks):
        body = list(BODY_MIX)
        structure.shuffle(body)
        lines.append(f"b{index}:")
        lines += [_body_line(kind, structure, values, regs)
                  for kind in body]
        lines.append(f"    test ebp, {_branch_mask(values)}")
        lines.append("    jz bail")
    lines += _LOOP_CLOSE + _EPILOGUE + ["bail:"] + _BAIL
    return "\n".join(lines) + "\n"


def self_check() -> None:
    """Seeds 0-3 of both shapes assemble, differ byte for byte, have
    the declared size, run to the interpreter's architected state under
    VM.soft, and cost the same simulated cycles."""
    from repro.core import CoDesignedVM, vm_soft
    from repro.isa.x86lite import assemble
    from reference import interpreter_reference, mismatches

    def expect(condition: bool, what: str) -> None:
        if not condition:
            raise SystemExit(f"gen self-check FAILED: {what}")

    for name, shape in (("hot_loop", HOT_LOOP), ("wide_cold", WIDE_COLD)):
        texts, cycles = set(), set()
        for seed in range(4):
            image = assemble(generate_source(shape, seed))
            texts.add(bytes(image.text.data))
            reference = interpreter_reference(image)
            expect(reference["exit_code"] == 0,
                   f"{name} seed {seed} exits {reference['exit_code']}")
            expect(reference["instructions"] == shape.dynamic_instructions,
                   f"{name} seed {seed} ran {reference['instructions']} "
                   f"instructions, not {shape.dynamic_instructions}")
            vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            vm.load(image)
            cycles.add(vm.run().total_cycles)
            wrong = mismatches(vm.state, reference)
            expect(not wrong, f"{name} seed {seed}: VM.soft differs from "
                   f"the interpreter in {wrong}")
        expect(len(texts) == 4, f"{name}: seeds gave identical images")
        expect(len(cycles) == 1, f"{name}: simulated cycles differ "
               f"between seeds: {sorted(cycles)}")
        print(f"gen self-check {name}: 4 seeds ok, "
              f"{shape.static_instructions} static / "
              f"{shape.dynamic_instructions} dynamic instructions, "
              f"{cycles.pop():.0f} simulated cycles on every seed")


if __name__ == "__main__":
    import paths
    paths.add_src()
    self_check()
