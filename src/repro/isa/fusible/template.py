"""Micro-op byte templates: encoded words with holes for values.

A translator rule (a cracking rule, the exit stub, the profiling
prologue) is ordinary code that builds ``MicroOp``s.  Run it once with
:class:`Sym`s in place of the integers that vary from use to use (an
immediate, a displacement, an address) and it leaves a
:class:`Template`: the encoded words, a *hole* for every immediate field
it filled from such a value, a *guard* for every question it asked of
one.  A use whose values answer the guards alike gets its bytes by
patching the holes; another took a different path through the rule.
Both are Python compiled once from the guards and holes: a template
traced on its own (``Template.of``) serves through its ``fill``
(``compile_fill``), an instruction shape's templates through the
shape's function, which inlines them.  The rule stays the one place
its logic is written, and a template (so any function made from it)
holds no value (``docs/isa_reference.md``, "Templates").
"""

from __future__ import annotations

import operator
from dataclasses import replace
from typing import Callable, Dict, Iterable, List

from repro.isa.fusible.encoding import encode_uop, imm_field
from repro.isa.fusible.microop import MicroOp


#: each operator a ``Sym`` supports -> its symbol in generated code
SYMBOLS: Dict[Callable, str] = {}


def _then(step: Callable[[int, int], int], symbol: str):
    """``Sym <op> operand``: the same value one step further on; the
    operand is a constant or another ``Sym`` (kept as its recipe)."""
    SYMBOLS[step] = symbol

    def apply(self: "Sym", operand) -> "Sym":
        number = operand
        if type(operand) is Sym:
            operand, number = (operand.source, operand.chain), operand.value
        elif type(operand) is not int:
            return NotImplemented
        return Sym(step(self.value, number), self.source,
                   self.chain + ((step, operand),), self.asked)
    return apply


def _ask(test: Callable[[int, int], bool], symbol: str):
    """``Sym <cmp> constant``: this run's answer, logged as a guard."""
    SYMBOLS[test] = symbol

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
    to a template's ``fill``, ``chain`` is the ``(operator, operand)``
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

    __and__ = __rand__ = _then(operator.and_, "&")
    __xor__ = __rxor__ = _then(operator.xor, "^")
    __add__ = __radd__ = _then(operator.add, "+")
    __sub__ = _then(operator.sub, "-")
    __rshift__ = _then(operator.rshift, ">>")
    __le__, __lt__ = _ask(operator.le, "<="), _ask(operator.lt, "<")
    __ge__, __gt__ = _ask(operator.ge, ">="), _ask(operator.gt, ">")
    __eq__, __ne__ = _ask(operator.eq, "=="), _ask(operator.ne, "!=")

    def __bool__(self) -> bool:
        return self != 0


def recipe(source: int, chain: tuple) -> str:
    """A ``Sym``'s recipe as an expression over the values ``v``, as
    ``((v[1] & 4294967295) ^ 2147483648) - 2147483648``."""
    text = f"v[{source}]"
    for step, operand in chain:
        if type(operand) is tuple:      # another value's recipe
            operand = recipe(*operand)
        text, operand = (f"({part})" if " " in str(part) else part
                         for part in (text, operand))
        text = f"{text} {SYMBOLS[step]} {operand}"
    return text


def define(name: str, text: str, **names) -> Callable:
    """The function ``name`` that ``text`` defines, with ``names`` for
    globals and no builtins; it keeps ``text`` as ``source``."""
    scope = dict(names, little="little", __builtins__={})
    exec(compile(text, "<template>", "exec"), scope)
    scope[name].source = text
    return scope[name]


class Template:
    """What one run of a rule emitted, as bytes to patch (one made by
    ``of`` serves through its ``fill``)."""

    __slots__ = ("code", "uops", "guards", "holes", "tested", "fill")

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
        #: whether some values are not served (a guard or a hole)
        self.tested = bool(self.guards or self.holes)

    def serving(self, name: str, more: str = "") -> str:
        """The lines that return this template's bytes (``name`` meaning
        ``self.code``), then ``more``, for the values ``v`` if they
        answer each guard as when traced and fit each hole."""
        named: Dict[str, str] = {}

        def value(source: int, chain: tuple) -> str:   # computed once
            text = recipe(source, chain)
            if text in named:
                return named[text]
            named[text] = f"r{len(named)}"
            return f"({named[text]} := {text})"
        tests = [f"{'' if outcome else 'not '}{value(source, chain)} "
                 f"{SYMBOLS[test]} {constant}"
                 for source, chain, test, constant, outcome in self.guards]
        # the code as one little-endian number: a word's high parcel
        # leads the stream, so a field's low 16 bits lie at word + 2,
        # its top bits (a long word's field is < 1 << 24) at word + 0
        code = f"{int.from_bytes(self.code, 'little'):#x}"
        for at, mask, least, greatest, source, chain in self.holes:
            # a range the guards hold the recipe to is not tested again
            if (source, chain, operator.ge, least, True) not in self.guards \
                    or (source, chain, operator.le, greatest, True) \
                    not in self.guards:
                tests.append(f"{least} <= {value(source, chain)} "
                             f"<= {greatest}")
            held = named[recipe(source, chain)]
            code += f" | ({held} & {mask & 0xFFFF}) << {8 * at + 16}"
            if mask >> 16:
                code += f" | ({held} >> 16 & {mask >> 16}) << {8 * at}"
        code = f"({code}).to_bytes({len(self.code)}, little)" \
            if self.holes else name
        test = "\n            and ".join(tests)
        return f"    if ({test}):\n        return {code}{more}\n" if tests \
            else f"    return {code}{more}\n"

    @classmethod
    def of(cls, rule: Callable[..., Iterable[MicroOp]], *sample: int
           ) -> "Template":
        """The template of ``rule(*values)``, traced on ``sample``,
        served through its own ``fill``."""
        asked: list = []
        template = cls(rule(*(Sym(value, source, (), asked)
                              for source, value in enumerate(sample))), asked)
        template.fill = compile_fill(template)
        return template


def compile_fill(template: Template) -> Callable:
    """``fill(values)``: the bytes ``template``'s rule would emit for
    ``values``, or None if they answer a guard differently (or overflow
    a field, which the rule then has to report itself)."""
    return define("fill", "def fill(v):\n" + template.serving("code")
                  + "    return None\n" * template.tested, code=template.code)
