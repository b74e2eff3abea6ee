"""Instruction shapes: x86lite bytes in, cracked micro-op bytes out.

The software analogue of the paper's XLTx86 unit (Table 1 / Fig. 6): an
instruction goes in as bytes and comes out as the encoded micro-ops of
its cracked body plus the facts of the CSR (length, ``Flag_cti``,
``Flag_cmplx``), no ``Instruction`` and no ``MicroOp`` built on the way.
An instruction's *shape* is its leading bytes that are not displacement
or immediate; the first of a shape is decoded and cracked by the one
decoder and the one cracker with its address and values as ``Sym``s, and
what they emit is the ``Template`` its like are served from -- as is
what ends a block after it (``emit.terminator``).  The table holds no
value of any program, so it is one per process and nothing invalidates
it: ``docs/isa_reference.md``, "Templates".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.isa.fusible.template import Sym, Template, resolve
from repro.isa.x86lite.decoder import Cursor, decode_from
from repro.isa.x86lite.instruction import MAX_INSTRUCTION_LENGTH
from repro.isa.x86lite.opcodes import Op
from repro.isa.x86lite.registers import Cond
from repro.memory.address_space import ADDRESS_MASK
from repro.translator.cracker import crack
from repro.translator.emit import side_entries, terminator

#: index of the instruction's address among a template's values; its
#: displacement / immediate fields follow in byte order
ADDR = 0

#: Architected bytes fetched at a time while walking instructions.
FETCH_BYTES = 256


def fetch(memory, addr: int) -> bytes:
    """The window an instruction walk reads at ``addr`` (always 16 bytes:
    at the very top of memory it raises, as every instruction fetch
    there does)."""
    return memory.read(addr, max(MAX_INSTRUCTION_LENGTH,
                                 min(FETCH_BYTES, ADDRESS_MASK + 1 - addr)))


class _FieldCursor(Cursor):
    """A cursor that hands out each displacement / immediate as a
    ``Sym`` and notes where it lay: ``(start, end, signed)``, relative
    to the instruction."""

    def __init__(self, data: bytes, offset: int) -> None:
        super().__init__(data, offset)
        self.fields: List[Tuple[int, int, bool]] = []
        self.asked: list = []

    def u8(self) -> int:
        # a shape is a prefix of its instruction: nothing read after a
        # value field may decide what the instruction is
        assert not self.fields, "shape byte after a value field"
        return super().u8()

    def value(self, size: int, signed: bool = False) -> Sym:
        start = self.consumed
        number = super().value(size, signed)
        self.fields.append((start, start + size, signed))
        return Sym(number, len(self.fields), (), self.asked)


class Ending(Template):
    """A block terminator: the template of its head, where the head's
    VMCALLs lie, and each exit as ``(kind, recipe of its x86 target)``
    (no recipe: a VMEXIT through R29)."""

    __slots__ = ("vmcalls", "stubs")

    def __init__(self, head, asked, stubs) -> None:
        super().__init__(head, asked)
        self.vmcalls = [offset for offset, _ in side_entries(head)]
        self.stubs = [(kind, target and (target.source, target.chain))
                      for kind, target in stubs]


class Shape:
    """What all instructions with the same shape bytes share."""

    __slots__ = ("length", "fields", "cti", "cmplx", "op", "cond", "bodies",
                 "endings")

    def __init__(self, length: int, fields: tuple, cti: bool, cmplx: bool,
                 op: Op, cond: Optional[Cond]) -> None:
        self.length = length        # x86_ilen
        self.fields = fields        # where displacement / immediate lie
        self.cti = cti              # Flag_cti
        self.cmplx = cmplx          # Flag_cmplx (16-bit forms too)
        self.op = op                # the x86 operation (JMP, JCC, CALL ...)
        self.cond = cond            # a JCC's condition code
        #: one template per path the cracker has taken through the
        #: shape, and one per path through what ends a block after it
        self.bodies: List[Template] = []
        self.endings: List[Ending] = []

    def _serve(self, ending: bool, data: bytes, offset: int, addr: int):
        """``(template, its bytes for this instruction, its values)``."""
        values = [addr] + [
            int.from_bytes(data[offset + start:offset + end], "little",
                           signed=signed)
            for start, end, signed in self.fields]
        paths = self.endings if ending else self.bodies
        for template in paths:
            code = template.fill(values)
            if code is not None:
                return template, code, values
        # a path not taken yet (or one on which cracker or encoder
        # raise, as they then do here)
        _learn(data, offset, addr, ending)
        code = paths[-1].fill(values)
        assert code is not None, "a template must serve its own sample"
        return paths[-1], code, values

    def body(self, data: bytes, offset: int = 0, addr: int = 0
             ) -> Tuple[bytes, int]:
        """``(encoded micro-ops, how many)`` of the cracked body of the
        instruction of this shape at ``data[offset:]``."""
        template, code, _values = self._serve(False, data, offset, addr)
        return code, template.uops

    def ending(self, data: bytes, offset: int, addr: int
               ) -> Tuple[bytes, int, List[int], List[Tuple]]:
        """The block terminator after that instruction: ``(encoded
        head, micro-ops in it, offsets of its VMCALLs, [(exit kind,
        x86 target or None)])`` -- ``emit.terminator`` in bytes."""
        template, code, values = self._serve(True, data, offset, addr)
        return code, template.uops, template.vmcalls, [
            (kind, target and resolve(values, *target))
            for kind, target in template.stubs]


#: a key that only starts a shape: a longer one decides
_MORE = object()

#: shape bytes -> Shape; every proper prefix of a shape -> _MORE
_SHAPES: Dict[bytes, Union[Shape, object]] = {}


def shape_at(data: bytes, offset: int = 0, addr: int = 0) -> Shape:
    """The shape of the instruction at ``data[offset:]``; raises
    ``DecodeError`` as ``decode`` does (and, meeting a shape first in an
    instruction whose micro-ops do not encode, as ``encode_uop`` does).
    Instruction bytes determine what follows them from left to right,
    so no shape is a prefix of another and the key is found by growing
    it."""
    size = 1
    found = _SHAPES.get(data[offset:offset + 1])
    while found is _MORE and offset + size < len(data):
        size += 1
        found = _SHAPES.get(data[offset:offset + size])
    if found is None or found is _MORE \
            or offset + found.length > len(data):
        return _learn(data, offset, addr)
    return found


def _learn(data: bytes, offset: int, addr: int,
           ending: Optional[bool] = None) -> Shape:
    """Decode and crack the instruction at ``data[offset:]`` with its
    address and values symbolic, and enter the template of the path
    taken -- through the cracker or (``ending``) on through the
    terminator; for a new shape, whichever its kind is asked for first
    -- and its shape if new.  Raises what decoder and encoder raise."""
    cursor = _FieldCursor(data, offset)
    instr = decode_from(cursor, Sym(addr, ADDR, (), cursor.asked))
    assert not cursor.asked, "a value decided how an instruction decodes"
    cracked = crack(instr)
    if ending is None:
        ending = cracked.cti or cracked.cmplx
    if ending:
        head, stubs = terminator(instr, cracked)
        template = Ending(head, cursor.asked, stubs)
    else:
        template = Template(cracked.uops, cursor.asked)
    size = cursor.fields[0][0] if cursor.fields else instr.length
    key = data[offset:offset + size]
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = Shape(instr.length, tuple(cursor.fields),
                                     cracked.cti, cracked.cmplx, instr.op,
                                     instr.cond)
        for shorter in range(1, size):
            marker = _SHAPES.setdefault(key[:shorter], _MORE)
            assert marker is _MORE, "one shape is a prefix of another"
    (shape.endings if ending else shape.bodies).append(template)
    return shape
