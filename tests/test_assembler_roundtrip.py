"""Property: assembled programs decode back to themselves.

Random instruction sequences are encoded via the Instruction API,
decoded and rendered as text, re-assembled through the text assembler,
and the instruction the new bytes decode to compared with the first —
closing the loop between all three front ends (builder API, assembler,
decoder).
"""

from hypothesis import given, settings

from repro.isa.x86lite import decode, encode
from repro.isa.x86lite.assembler import assemble
from repro.memory.loader import DEFAULT_TEXT_BASE
from tests.strategies import instructions


@given(instr=instructions)
@settings(max_examples=250, deadline=None)
def test_encode_disassemble_reassemble(instr):
    encoded = encode(instr, addr=DEFAULT_TEXT_BASE)
    decoded = decode(encoded, addr=DEFAULT_TEXT_BASE)
    assert decoded.length == len(encoded)
    text = str(decoded)
    try:
        reassembled = assemble(text).text.data
    except Exception as exc:  # pragma: no cover - should never trigger
        raise AssertionError(f"assembler rejected its own "
                             f"disassembly {text!r}: {exc}")
    redecoded = decode(reassembled, addr=DEFAULT_TEXT_BASE)
    # the instruction, not its text: a 16-bit form printed with 32-bit
    # register names reads back as the same text at the wrong width
    assert (redecoded.op, redecoded.operands, redecoded.width,
            redecoded.cond, redecoded.target, redecoded.rep) == \
        (decoded.op, decoded.operands, decoded.width, decoded.cond,
         decoded.target, decoded.rep)
