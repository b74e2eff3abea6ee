"""The x86lite opcode map (``FORMS``): its shape, its documentation and
the decode map it spells out.

* every op has a row, and no two rows claim the same opcode and
  ``/reg`` selector;
* the "Instruction set" table of ``docs/isa_reference.md``, row by row;
* the accept/reject boundary and result of ``decode`` over every one-
  and two-byte opcode, pinned as one digest.
"""

import hashlib
from pathlib import Path

import pytest

from repro.isa.x86lite.decoder import DecodeError, decode
from repro.isa.x86lite.opcodes import FORMS, Op
from repro.translator.templates import shape_at

ISA_REFERENCE = Path(__file__).resolve().parent.parent / "docs" / \
    "isa_reference.md"


def opcode_keys(form) -> list:
    """The ``(opcode bytes, selector)`` pairs a row decodes from."""
    low = {"+r": range(8), "+cc": range(16)}.get(form.ext, (0,))
    selectors = [form.ext] if type(form.ext) is int else list(range(8))
    return [(form.opcode[:-1] + bytes([form.opcode[-1] + bits]), selector)
            for bits in low for selector in selectors]


class TestTableShape:
    def test_every_op_has_a_form(self):
        assert {form.op for form in FORMS} == set(Op)

    def test_no_two_forms_share_an_opcode_and_selector(self):
        keys = [key for form in FORMS for key in opcode_keys(form)]
        assert len(keys) == len(set(keys))

    def test_forms_with_modrm_name_one_rm_operand(self):
        for form in FORMS:
            rm = [letter for letter in form.layout
                  if letter in ("E", "M", "Mb", "Mw")]
            assert len(rm) <= 1, form
            if type(form.ext) is int or "G" in form.layout:
                assert rm, form


# -- docs/isa_reference.md ----------------------------------------------------

def reference_row(form) -> tuple:
    """One row of the doc's instruction-set table, as ``FORMS`` has it."""
    opcode = " ".join(f"{byte:02X}" for byte in form.opcode)
    ext = "" if form.ext is None else \
        form.ext if isinstance(form.ext, str) else f" /{form.ext}"
    return (f"`{form.op.name}`", f"`{opcode}{ext}`",
            ", ".join(form.layout) or "-")


def documented_rows() -> list:
    text = ISA_REFERENCE.read_text(encoding="utf-8")
    section = text.split("### Instruction set\n", 1)[1].split("\n### ", 1)[0]
    table = section.split("| op | opcode | operands |", 1)[1]
    return [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in table.splitlines() if line.startswith("| `")]


def test_instruction_set_table_matches_forms_row_by_row():
    assert documented_rows() == [reference_row(form) for form in FORMS]


# -- the decode map -----------------------------------------------------------

PREFIXES = (b"", b"\x66", b"\xf3")
OPCODES = [bytes([byte]) for byte in range(256) if byte != 0x0F] + \
    [bytes([0x0F, byte]) for byte in range(256)]
#: every mod and reg field, r/m a register, the SIB escape and EBP (disp32
#: without a base at mod 00)
MODRMS = [mod << 6 | reg << 3 | rm for mod in range(4) for reg in range(8)
          for rm in (0, 4, 5)]
#: SIB (scale 4, index EBX, base EBP), then displacement and immediate
#: bytes with their sign bits mixed
TAIL = bytes([0x9D, 0x80, 0xF1, 0x02, 0xFF, 0x7E, 0x13, 0x85, 0xC4, 0x39,
              0xEA, 0x05, 0x96])
#: the digest of the if-chain decoder that ``FORMS`` replaced, with the
#: 288 strings ``66 0f b6|b7|be|bf`` + a memory ModRM moved to
#: ``DecodeError`` (a ``movzx`` / ``movsx`` has no 16-bit destination)
DECODE_MAP_SHA256 = \
    "3e756bafc9280a8b4484cb6429643eb430611e46ca57d9399f69297b60a64faf"


@pytest.mark.parametrize("raw", ["660fb606", "660fb706", "660fbe06",
                                 "660fbf06", "66f30fb606"])
def test_an_operand_size_prefix_on_movzx_or_movsx_does_not_decode(raw):
    # x86lite has no 16-bit destination for them (the assembler refuses
    # ``movzx ax, byte [esi]``); IA-32 would write AX only
    with pytest.raises(DecodeError, match="operand-size prefix"):
        decode(bytes.fromhex(raw))
    with pytest.raises(DecodeError):
        shape_at(bytes.fromhex(raw))
    assert decode(bytes.fromhex(raw.replace("66", "", 1))).width == 32


def test_decode_map_is_pinned():
    """147 168 byte strings: every prefix, one- and two-byte opcode and
    ModRM shape, each decoded to its ``repr`` or to ``DecodeError``."""
    digest = hashlib.sha256()
    for prefix in PREFIXES:
        for opcode in OPCODES:
            for modrm in MODRMS:
                try:
                    text = repr(decode(prefix + opcode + bytes((modrm,))
                                       + TAIL, addr=0x400000))
                except DecodeError:
                    text = "DecodeError"
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == DECODE_MAP_SHA256
