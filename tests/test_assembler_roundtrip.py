"""Property: assembled programs decode back to themselves.

Random instruction sequences are encoded via the Instruction API,
decoded and rendered as text, re-assembled through the text assembler,
and the resulting bytes compared — closing the loop between all three
front ends (builder API, assembler, decoder).
"""

from hypothesis import given, settings

from repro.isa.x86lite import decode, encode
from repro.isa.x86lite.assembler import assemble
from repro.memory.loader import DEFAULT_TEXT_BASE
from tests.strategies import instructions


def _as_text(instr) -> str:
    """Render an instruction the assembler can re-read."""
    text = str(instr)
    # the assembler writes sized memory operands with keywords
    return text


@given(instr=instructions)
@settings(max_examples=250, deadline=None)
def test_encode_disassemble_reassemble(instr):
    encoded = encode(instr, addr=DEFAULT_TEXT_BASE)
    decoded = decode(encoded, addr=DEFAULT_TEXT_BASE)
    assert decoded.length == len(encoded)
    text = _as_text(decoded)
    # MOVZX/MOVSX need their size keyword to re-assemble
    if decoded.op.value in ("movzx", "movsx"):
        size = {8: "byte", 16: "word"}[decoded.operands[1].size]
        dst, mem = decoded.operands
        text = f"{decoded.op.value} {dst}, {size} {mem}"
    try:
        reassembled = assemble(text).text.data
    except Exception as exc:  # pragma: no cover - should never trigger
        raise AssertionError(f"assembler rejected its own "
                             f"disassembly {text!r}: {exc}")
    redecoded = decode(reassembled, addr=DEFAULT_TEXT_BASE)
    assert str(redecoded) == str(decoded)
