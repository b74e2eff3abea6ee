"""Micro-op byte templates: encoded words with holes for values.

A translator rule (a cracking rule, the exit stub, the profiling
prologue) is ordinary code that builds ``MicroOp``s.  Run it once with
:class:`Sym`s in place of the integers that vary from use to use (an
immediate, a displacement, an address) and it leaves a
:class:`Template`: the encoded words, a *hole* for every immediate field
it filled from such a value, a *guard* for every question it asked of
one.  A use whose values answer the guards alike gets its bytes by
patching the holes; another took a different path through the rule.
The rule stays the one place its logic is written, and a template holds
no value (``docs/isa_reference.md``, "Templates").
"""

from __future__ import annotations

import operator
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Sequence

from repro.isa.fusible.encoding import encode_uop, imm_field
from repro.isa.fusible.microop import MicroOp


def _then(step: Callable[[int, int], int]):
    """``Sym <op> operand``: the same value one step further on; the
    operand is a constant or another ``Sym`` (kept as its recipe)."""
    def apply(self: "Sym", operand) -> "Sym":
        number = operand
        if type(operand) is Sym:
            operand, number = (operand.source, operand.chain), operand.value
        elif type(operand) is not int:
            return NotImplemented
        return Sym(step(self.value, number), self.source,
                   self.chain + ((step, operand),), self.asked)
    return apply


def _ask(test: Callable[[int, int], bool]):
    """``Sym <cmp> constant``: this run's answer, logged as a guard."""
    def answer(self: "Sym", constant: int) -> bool:
        if type(constant) is not int:
            return NotImplemented
        outcome = test(self.value, constant)
        self.asked.append((self.source, self.chain, test, constant, outcome))
        return outcome
    return answer


class Sym:
    """An integer a template must not remember: its value in this run,
    and its recipe for another -- ``source`` indexes the values handed
    to :meth:`Template.fill`, ``chain`` is the ``(operator, operand)``
    steps applied since.  Arithmetic extends the chain; a comparison
    with a constant, or a truth test, answers for this run's value and
    is entered in ``asked``, the log all values of one run share.
    Anything else (hashing, indexing, a shift *by* one) is a
    ``TypeError``, never a silently baked-in value."""

    __slots__ = ("value", "source", "chain", "asked")
    __hash__ = None     # type: ignore[assignment]

    def __init__(self, value: int, source: int, chain: tuple,
                 asked: list) -> None:
        self.value, self.source = value, source
        self.chain, self.asked = chain, asked

    __and__ = __rand__ = _then(operator.and_)
    __xor__ = __rxor__ = _then(operator.xor)
    __add__ = __radd__ = _then(operator.add)
    __sub__ = _then(operator.sub)
    __rshift__ = _then(operator.rshift)
    __le__, __lt__ = _ask(operator.le), _ask(operator.lt)
    __ge__, __gt__ = _ask(operator.ge), _ask(operator.gt)
    __eq__, __ne__ = _ask(operator.eq), _ask(operator.ne)

    def __bool__(self) -> bool:
        return self != 0


def resolve(values: Sequence[int], source: int, chain: tuple) -> int:
    """A ``Sym``'s recipe ``(source, chain)`` applied to ``values``."""
    value = values[source]
    for step, operand in chain:
        if type(operand) is tuple:      # another value's recipe
            operand = resolve(values, *operand)
        value = step(value, operand)
    return value


class Template:
    """What one run of a rule emitted, as bytes to patch."""

    __slots__ = ("code", "uops", "guards", "holes")

    def __init__(self, uops: Iterable[MicroOp], asked: Iterable = ()
                 ) -> None:
        chunks: List[bytes] = []
        holes = []
        offset = 0
        for uop in uops:
            imm = uop.imm
            if type(imm) is Sym:
                mask, least, greatest = imm_field(uop.op)
                holes.append((offset, mask, least, greatest, imm.source,
                              imm.chain))
                # a sample that does not fit raises here, as the object
                # path does; what is kept has the field clear
                encode_uop(replace(uop, imm=imm.value))
                uop = replace(uop, imm=0)
            chunks.append(encode_uop(uop))
            offset += len(chunks[-1])
        #: the encoded words, every hole's field zero
        self.code = b"".join(chunks)
        self.uops = len(chunks)
        #: ``(source, chain, test, constant, outcome)``, as first asked
        self.guards = tuple(dict.fromkeys(asked))
        #: ``(offset of a 32-bit word, mask, least, greatest, source,
        #: chain)``: the immediate field there takes the resolved value
        self.holes = tuple(holes)

    @classmethod
    def of(cls, rule: Callable[..., Iterable[MicroOp]], *sample: int
           ) -> "Template":
        """The template of ``rule(*values)``, traced on ``sample``."""
        asked: list = []
        return cls(rule(*(Sym(value, source, (), asked)
                          for source, value in enumerate(sample))), asked)

    def fill(self, values: Sequence[int]) -> Optional[bytes]:
        """The bytes the rule would emit for ``values``, or None if they
        answer a guard differently (or overflow a field, which the rule
        then has to report itself)."""
        for source, chain, test, constant, outcome in self.guards:
            if test(resolve(values, source, chain), constant) \
                    is not outcome:
                return None
        if not self.holes:
            return self.code
        code = bytearray(self.code)
        for offset, mask, least, greatest, source, chain in self.holes:
            value = resolve(values, source, chain)
            if not least <= value <= greatest:
                return None
            value &= mask       # < 1 << 24: a long word's operand bits
            # the word's high parcel leads the stream, each little-endian
            code[offset + 2] |= value & 0xFF
            code[offset + 3] |= value >> 8 & 0xFF
            code[offset] |= value >> 16
        return bytes(code)
