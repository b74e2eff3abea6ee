"""Template serving as it was interpreted: the oracle.

A template's ``fill`` once walked its ``guards`` and ``holes`` and
applied each recipe's ``(operator, operand)`` chain with ``resolve``;
``Shape.body`` and ``Shape.ending`` read the value fields into a list
and asked each sibling's ``fill`` in turn.  Each of those is now one
function compiled from the same lists (``isa/fusible/template.py``,
``translator/templates.py``); the walk is kept here as the reference
those functions must equal.  Nothing here learns: where no sibling
serves, the oracle says so with None.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.fusible.template import Template
from repro.translator.templates import Shape


def resolve(values: Sequence[int], source: int, chain: tuple) -> int:
    """A ``Sym``'s recipe ``(source, chain)`` applied to ``values``."""
    value = values[source]
    for step, operand in chain:
        if type(operand) is tuple:      # another value's recipe
            operand = resolve(values, *operand)
        value = step(value, operand)
    return value


def fill(template: Template, values: Sequence[int]) -> Optional[bytes]:
    """The bytes the rule would emit for ``values``, or None if they
    answer a guard differently or overflow a field."""
    for source, chain, test, constant, outcome in template.guards:
        if test(resolve(values, source, chain), constant) is not outcome:
            return None
    code = bytearray(template.code)
    for offset, mask, least, greatest, source, chain in template.holes:
        value = resolve(values, source, chain)
        if not least <= value <= greatest:
            return None
        value &= mask       # < 1 << 24: a long word's operand bits
        # the word's high parcel leads the stream, each little-endian
        code[offset + 2] |= value & 0xFF
        code[offset + 3] |= value >> 8 & 0xFF
        code[offset] |= value >> 16
    return bytes(code)


def values_of(shape: Shape, data: bytes, offset: int, addr: int
              ) -> List[int]:
    """The instruction's address, then its value fields in byte order."""
    return [addr] + [
        int.from_bytes(data[offset + start:offset + end], "little",
                       signed=signed)
        for start, end, signed in shape.fields]


def _first(paths, values):
    for template in paths:
        code = fill(template, values)
        if code is not None:
            return template, code
    return None, None


def body(shape: Shape, data: bytes, offset: int = 0, addr: int = 0):
    """``(code, micro-ops)`` of the first body template that serves the
    instruction at ``data[offset:]``, or None."""
    template, code = _first(shape.bodies,
                            values_of(shape, data, offset, addr))
    return template and (code, template.uops)


def ending(shape: Shape, data: bytes, offset: int, addr: int):
    """``(code, micro-ops, VMCALL offsets, [(kind, x86 target)])`` of
    the first ending template that serves, or None."""
    values = values_of(shape, data, offset, addr)
    template, code = _first(shape.endings, values)
    return template and (code, template.uops, template.vmcalls, [
        (kind, target and resolve(values, *target))
        for kind, target in template.stubs])
