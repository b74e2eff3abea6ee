"""Encoder/decoder tests for the x86lite ISA.

The key property: ``decode(encode(instr))`` reproduces the instruction
(operation, operands, width, condition), and ``encode(decode(bytes))``
reproduces canonical byte sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.x86lite import (
    Cond,
    DecodeError,
    ImmOperand,
    Instruction,
    MAX_INSTRUCTION_LENGTH,
    MemOperand,
    Op,
    Reg,
    RegOperand,
    decode,
    encode,
)
from tests.strategies import instructions


def roundtrip(instr: Instruction, addr: int = 0x400000) -> Instruction:
    data = encode(instr, addr=addr)
    assert 1 <= len(data) <= MAX_INSTRUCTION_LENGTH
    decoded = decode(data, addr=addr)
    assert decoded.length == len(data)
    return decoded


def assert_same(decoded: Instruction, original: Instruction) -> None:
    assert decoded.op is original.op
    assert decoded.cond == original.cond
    assert decoded.width == original.width
    assert decoded.rep == original.rep
    assert len(decoded.operands) == len(original.operands)
    for got, expected in zip(decoded.operands, original.operands):
        if isinstance(expected, ImmOperand):
            mask = (1 << expected.bits) - 1
            assert isinstance(got, ImmOperand)
            got_mask = (1 << got.bits) - 1
            assert (got.value & mask & got_mask) == \
                (expected.value & mask & got_mask)
        else:
            assert got == expected


class TestFixedEncodings:
    """Spot-check byte-exact encodings against the IA-32 opcode map."""

    def test_nop(self):
        assert encode(Instruction(Op.NOP)) == b"\x90"

    def test_hlt(self):
        assert encode(Instruction(Op.HLT)) == b"\xf4"

    def test_ret(self):
        assert encode(Instruction(Op.RET)) == b"\xc3"

    def test_ret_imm(self):
        assert encode(Instruction(Op.RET, (ImmOperand(8, 16),))) \
            == b"\xc2\x08\x00"

    def test_push_reg(self):
        assert encode(Instruction(Op.PUSH, (RegOperand(Reg.EBX),))) \
            == b"\x53"

    def test_pop_reg(self):
        assert encode(Instruction(Op.POP, (RegOperand(Reg.EDI),))) \
            == b"\x5f"

    def test_mov_reg_imm(self):
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.EAX),
                                           ImmOperand(0x12345678))))
        assert data == b"\xb8\x78\x56\x34\x12"

    def test_mov_reg_reg(self):
        # mov ecx, edx -> 8B /r with reg=ecx rm=edx
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.ECX),
                                           RegOperand(Reg.EDX))))
        # canonical choice: 0x89 /r (mov r/m, r) for reg,reg
        assert data == b"\x89\xd1"

    def test_add_eax_imm32(self):
        data = encode(Instruction(Op.ADD, (RegOperand(Reg.EAX),
                                           ImmOperand(0x1000))))
        assert data == b"\x05\x00\x10\x00\x00"

    def test_add_reg_imm8_uses_short_form(self):
        data = encode(Instruction(Op.ADD, (RegOperand(Reg.EBX),
                                           ImmOperand(5))))
        assert data == b"\x83\xc3\x05"

    def test_sub_mem_reg(self):
        # sub [ebx+8], ecx
        data = encode(Instruction(Op.SUB, (MemOperand(base=Reg.EBX, disp=8),
                                           RegOperand(Reg.ECX))))
        assert data == b"\x29\x4b\x08"

    def test_lea_sib(self):
        # lea eax, [ebx+ecx*4+0x10]
        data = encode(Instruction(
            Op.LEA, (RegOperand(Reg.EAX),
                     MemOperand(Reg.EBX, Reg.ECX, 4, 0x10))))
        assert data == b"\x8d\x44\x8b\x10"

    def test_esp_base_needs_sib(self):
        # mov eax, [esp]
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.EAX),
                                           MemOperand(base=Reg.ESP))))
        assert data == b"\x8b\x04\x24"

    def test_ebp_base_forces_disp8(self):
        # mov eax, [ebp] must encode as [ebp+0] (mod=01)
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.EAX),
                                           MemOperand(base=Reg.EBP))))
        assert data == b"\x8b\x45\x00"

    def test_absolute_address(self):
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.EAX),
                                           MemOperand(disp=0x404000))))
        assert data == b"\x8b\x05\x00\x40\x40\x00"

    def test_jmp_short_backward(self):
        instr = Instruction(Op.JMP, target=0x400000)
        data = encode(instr, addr=0x400010)
        assert data == b"\xeb\xee"  # -18

    def test_jmp_long(self):
        instr = Instruction(Op.JMP, target=0x400000)
        data = encode(instr, addr=0x401000)
        assert data[0] == 0xE9
        assert len(data) == 5

    def test_jcc_short(self):
        instr = Instruction(Op.JCC, cond=Cond.NE, target=0x400000)
        data = encode(instr, addr=0x400008)
        assert data == b"\x75\xf6"  # jnz -10

    def test_jcc_long_two_byte(self):
        instr = Instruction(Op.JCC, cond=Cond.E, target=0x500000)
        data = encode(instr, addr=0x400000)
        assert data[:2] == b"\x0f\x84"
        assert len(data) == 6

    def test_call_rel32(self):
        instr = Instruction(Op.CALL, target=0x400100)
        data = encode(instr, addr=0x400000)
        assert data == b"\xe8\xfb\x00\x00\x00"

    def test_rep_movsd(self):
        data = encode(Instruction(Op.MOVS, rep=True))
        assert data == b"\xf3\xa5"

    def test_operand_size_prefix(self):
        data = encode(Instruction(Op.MOV, (RegOperand(Reg.EAX),
                                           ImmOperand(0x1234, 16)),
                                  width=16))
        assert data == b"\x66\xb8\x34\x12"

    def test_int_syscall(self):
        data = encode(Instruction(Op.INT, (ImmOperand(0x80, 8),)))
        assert data == b"\xcd\x80"

    def test_movzx_byte(self):
        data = encode(Instruction(
            Op.MOVZX, (RegOperand(Reg.EAX),
                       MemOperand(base=Reg.ESI, size=8))))
        assert data == b"\x0f\xb6\x06"

    def test_imul_two_operand(self):
        data = encode(Instruction(Op.IMUL, (RegOperand(Reg.EAX),
                                            RegOperand(Reg.EBX))))
        assert data == b"\x0f\xaf\xc3"

    def test_shl_imm(self):
        data = encode(Instruction(Op.SHL, (RegOperand(Reg.EDX),
                                           ImmOperand(4, 8))))
        assert data == b"\xc1\xe2\x04"

    def test_shl_by_one_compact(self):
        data = encode(Instruction(Op.SHL, (RegOperand(Reg.EDX),
                                           ImmOperand(1, 8))))
        assert data == b"\xd1\xe2"

    def test_shift_by_cl(self):
        data = encode(Instruction(Op.SAR, (RegOperand(Reg.EAX),
                                           RegOperand(Reg.ECX))))
        assert data == b"\xd3\xf8"


class TestDecodeErrors:
    def test_truncated(self):
        with pytest.raises(DecodeError):
            decode(b"\xb8\x01")

    def test_invalid_opcode(self):
        with pytest.raises(DecodeError):
            decode(b"\x06")

    def test_invalid_two_byte(self):
        with pytest.raises(DecodeError):
            decode(b"\x0f\x05")

    def test_too_many_prefixes(self):
        with pytest.raises(DecodeError):
            decode(b"\x66\x66\x66\x66\x66\x90")

    def test_lea_register_operand_invalid(self):
        with pytest.raises(DecodeError):
            decode(b"\x8d\xc0")  # lea eax, eax

    def test_invalid_group_selector(self):
        with pytest.raises(DecodeError):
            decode(b"\xff\xf8")  # 0xFF /7 undefined

    def test_empty(self):
        with pytest.raises(DecodeError):
            decode(b"")

    @pytest.mark.parametrize("data", [
        b"\x7a\x00", b"\x7b\x00",
        b"\x0f\x4a\xc0", b"\x0f\x4b\xc0",
        b"\x0f\x8a\0\0\0\0", b"\x0f\x8b\0\0\0\0",
    ], ids=["jp-rel8", "jnp-rel8", "cmovp", "cmovnp", "jp-rel32",
            "jnp-rel32"])
    def test_parity_conditions_are_invalid(self, data):
        """``tttn`` 10 and 11 name no x86lite condition: the bytes are
        invalid, not a host ``ValueError`` from building a ``Cond``."""
        with pytest.raises(DecodeError, match="invalid condition code"):
            decode(data)

    @given(data=st.binary(max_size=2 * MAX_INSTRUCTION_LENGTH))
    @settings(max_examples=500)
    def test_arbitrary_bytes_raise_only_decode_error(self, data):
        try:
            decoded = decode(data)
        except DecodeError:
            return
        assert 1 <= decoded.length <= min(len(data),
                                          MAX_INSTRUCTION_LENGTH)


class TestBranchTargets:
    def test_jcc_target_resolution(self):
        decoded = decode(b"\x75\xf6", addr=0x400008)
        assert decoded.op is Op.JCC
        assert decoded.cond is Cond.NE
        assert decoded.target == 0x400000

    def test_call_target_resolution(self):
        decoded = decode(b"\xe8\xfb\x00\x00\x00", addr=0x400000)
        assert decoded.target == 0x400100

    def test_indirect_jmp(self):
        decoded = decode(b"\xff\xe0")  # jmp eax
        assert decoded.op is Op.JMP
        assert decoded.target is None
        assert decoded.operands == (RegOperand(Reg.EAX),)

    def test_control_transfer_classification(self):
        assert decode(b"\xc3").is_control_transfer
        assert decode(b"\xeb\x00").is_control_transfer
        assert not decode(b"\x90").is_control_transfer
        assert decode(b"\x74\x00").is_conditional


class TestComplexClassification:
    """The hardware assists flag these as Flag_cmplx cases."""

    def test_rep_movs_is_complex(self):
        assert decode(b"\xf3\xa5").is_complex

    def test_plain_movs_is_not_complex(self):
        assert not decode(b"\xa5").is_complex

    def test_div_is_complex(self):
        assert decode(b"\xf7\xf3").is_complex  # div ebx

    def test_int_is_complex(self):
        assert decode(b"\xcd\x80").is_complex

    def test_mov_is_not_complex(self):
        assert not decode(b"\xb8\x00\x00\x00\x00").is_complex


class TestRoundtripProperties:
    @given(instr=instructions)
    @settings(max_examples=300)
    def test_encode_decode_roundtrip(self, instr):
        assert_same(roundtrip(instr), instr)

    @given(instr=instructions)
    @settings(max_examples=120)
    def test_canonical_reencode_is_stable(self, instr):
        data = encode(instr, addr=0x400000)
        decoded = decode(data, addr=0x400000)
        assert encode(decoded, addr=0x400000) == data

    @given(instr=instructions)
    @settings(max_examples=120)
    def test_length_reported_correctly(self, instr):
        data = encode(instr, addr=0x400000)
        decoded = decode(data + b"\xcc" * 4, addr=0x400000)
        assert decoded.length == len(data)
