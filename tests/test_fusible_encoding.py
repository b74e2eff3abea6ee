"""Encode/decode tests for the fusible micro-op ISA."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.fusible import (
    MicroOp,
    UOp,
    UopDecodeError,
    UopEncodeError,
    decode_stream,
    decode_uop,
    encode_stream,
    encode_uop,
    stream_length,
)
from repro.isa.fusible.encoding import is_canonical
from repro.isa.fusible.opcodes import OP_INFO
from repro.isa.x86lite.registers import Cond
from tests.strategies import uops


class TestFormats:
    def test_short_op_is_two_bytes(self):
        uop = MicroOp(UOp.ADD2, rd=3, rs1=5)
        assert uop.length == 2
        assert len(encode_uop(uop)) == 2

    def test_long_op_is_four_bytes(self):
        uop = MicroOp(UOp.ADD, rd=20, rs1=21, rs2=22)
        assert uop.length == 4
        assert len(encode_uop(uop)) == 4

    def test_discriminator_in_first_parcel(self):
        short = encode_uop(MicroOp(UOp.MOV2, rd=1, rs1=2))
        long_ = encode_uop(MicroOp(UOp.ADD, rd=1, rs1=2, rs2=3))
        first_short = int.from_bytes(short[:2], "little")
        first_long = int.from_bytes(long_[:2], "little")
        assert not first_short & 0x4000
        assert first_long & 0x4000

    def test_fused_bit(self):
        plain = encode_uop(MicroOp(UOp.ADD2, rd=1, rs1=2))
        fused = encode_uop(MicroOp(UOp.ADD2, rd=1, rs1=2, fused=True))
        assert plain != fused
        assert decode_uop(fused).fused
        assert not decode_uop(plain).fused

    def test_setflags_bit(self):
        uop = MicroOp(UOp.ADD, rd=1, rs1=2, rs2=3, setflags=True)
        assert decode_uop(encode_uop(uop)).setflags


class TestErrors:
    def test_short_register_out_of_range(self):
        with pytest.raises(UopEncodeError):
            encode_uop(MicroOp(UOp.ADD2, rd=16, rs1=1))

    def test_imm13_out_of_range(self):
        with pytest.raises(UopEncodeError):
            encode_uop(MicroOp(UOp.ADDI, rd=1, rs1=2, imm=5000))

    def test_unsigned_imm_rejects_negative(self):
        with pytest.raises(UopEncodeError):
            encode_uop(MicroOp(UOp.ORI, rd=1, rs1=2, imm=-1))

    def test_imm4_out_of_range(self):
        with pytest.raises(UopEncodeError):
            encode_uop(MicroOp(UOp.ADDI2, rd=1, imm=9))

    def test_bc_without_cond(self):
        with pytest.raises(UopEncodeError):
            encode_uop(MicroOp(UOp.BC, imm=4))

    def test_truncated_stream(self):
        with pytest.raises(UopDecodeError):
            decode_uop(b"\x00")

    def test_truncated_long_op(self):
        data = encode_uop(MicroOp(UOp.ADD, rd=1, rs1=2, rs2=3))
        with pytest.raises(UopDecodeError):
            decode_uop(data[:2])

    def test_invalid_long_opcode(self):
        # opcode 63 is unassigned
        data = ((1 << 30) | (63 << 24)).to_bytes(4, "big")
        word = int.from_bytes(data, "big")
        raw = ((word >> 16).to_bytes(2, "little")
               + (word & 0xFFFF).to_bytes(2, "little"))
        with pytest.raises(UopDecodeError):
            decode_uop(raw)

    def test_invalid_condition_field(self):
        # tttn 10 and 11 name no condition: a decode error, not a crash
        good = encode_uop(MicroOp(UOp.BC, cond=Cond.S, imm=4))
        word = int.from_bytes(good[:2], "little") << 16
        bad = (word & ~(0x1F << 19)) | (10 << 19)
        raw = (bad >> 16).to_bytes(2, "little") + good[2:]
        with pytest.raises(UopDecodeError):
            decode_uop(raw)


class TestRoundtrip:
    @given(uop=uops)
    @settings(max_examples=400)
    def test_roundtrip(self, uop):
        decoded = decode_uop(encode_uop(uop))
        assert decoded.op is uop.op
        assert decoded.fused == uop.fused
        # compare only the fields that the format encodes for this op
        assert str(decoded) == str(uop.with_fused(uop.fused))

    @given(sequence=st.lists(uops, min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_stream_roundtrip(self, sequence):
        data = encode_stream(sequence)
        assert len(data) == stream_length(sequence)
        decoded = decode_stream(data)
        assert [str(uop) for uop in decoded] == \
            [str(uop) for uop in sequence]


@st.composite
def words(draw):
    """The bytes of one micro-op of a drawn opcode: every operand bit
    random, so fields the form does not carry get set as well; half the
    long words are thinned out, or few would have every such bit clear."""
    info = OP_INFO[draw(st.sampled_from(sorted(UOp, key=lambda o: o.name)))]
    fused = draw(st.integers(0, 1))
    if info.length == 2:
        return info.op, (fused << 15 | info.number << 9
                         | draw(st.integers(0, 0x1FF))).to_bytes(2, "little")
    operand = draw(st.integers(0, 0xFFFFFF))
    if draw(st.booleans()):
        operand &= draw(st.integers(0, 0xFFFFFF))
    word = fused << 31 | 1 << 30 | info.number << 24 | operand
    return info.op, ((word >> 16).to_bytes(2, "little")
                     + (word & 0xFFFF).to_bytes(2, "little"))


class TestCanonicalWords:
    """``is_canonical`` is what lets the install screen take a record's
    own bytes for a micro-op's encoding."""

    @given(drawn=words())
    @settings(max_examples=3000, deadline=None)
    def test_canonical_iff_the_word_survives_the_round_trip(self, drawn):
        op, word = drawn
        try:
            uop = decode_uop(word)
        except UopDecodeError:
            return      # e.g. a condition field that names no condition
        assert uop.op is op
        assert is_canonical(op, word) == (encode_uop(uop) == word)

    @given(uop=uops)
    @settings(max_examples=400)
    def test_every_encoding_is_canonical(self, uop):
        assert is_canonical(uop.op, encode_uop(uop))

    def test_every_operand_bit_of_every_opcode_on_its_own(self):
        partial = set()     # forms that leave some operand bit uncarried
        for op, info in OP_INFO.items():
            for bit in range(9 if info.length == 2 else 24):
                if info.length == 2:
                    word = (info.number << 9 | 1 << bit).to_bytes(
                        2, "little")
                else:
                    value = 1 << 30 | info.number << 24 | 1 << bit
                    word = ((value >> 16).to_bytes(2, "little")
                            + (value & 0xFFFF).to_bytes(2, "little"))
                try:
                    uop = decode_uop(word)
                except UopDecodeError:
                    continue
                canonical = encode_uop(uop) == word
                assert is_canonical(op, word) == canonical, (op, bit)
                if not canonical:
                    partial.add(info.form)
        assert partial == {"N0", "R1", "X2", "R2", "R3", "SEL", "BC"}
