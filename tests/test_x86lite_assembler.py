"""Tests for the two-pass x86lite assembler."""

import re

import pytest

from repro.isa.x86lite import (
    AssemblerError,
    Op,
    Reg,
    assemble,
    assemble_to_bytes,
    decode,
)
from repro.memory.loader import DEFAULT_TEXT_BASE


def decode_all(data: bytes, base: int = DEFAULT_TEXT_BASE):
    """Decode a byte string fully into instructions."""
    out = []
    offset = 0
    while offset < len(data):
        instr = decode(data, addr=base + offset, offset=offset)
        out.append(instr)
        offset += instr.length
    return out


class TestBasics:
    def test_single_instruction(self):
        assert assemble_to_bytes("nop") == b"\x90"

    def test_comments_and_blank_lines(self):
        source = """
        ; leading comment
        nop      ; trailing comment

        hlt
        """
        assert assemble_to_bytes(source) == b"\x90\xf4"

    def test_mov_imm(self):
        data = assemble_to_bytes("mov eax, 0x42")
        assert data == b"\xb8\x42\x00\x00\x00"

    def test_memory_operands(self):
        instrs = decode_all(assemble_to_bytes(
            "mov eax, [ebx+ecx*4+8]\nmov [ebp-4], edx"))
        first, second = instrs
        mem = first.operands[1]
        assert (mem.base, mem.index, mem.scale, mem.disp) \
            == (Reg.EBX, Reg.ECX, 4, 8)
        mem2 = second.operands[0]
        assert (mem2.base, mem2.disp) == (Reg.EBP, -4)

    def test_char_literal(self):
        data = assemble_to_bytes("mov ebx, 'A'")
        assert data == b"\xbb\x41\x00\x00\x00"

    def test_negative_immediate(self):
        instrs = decode_all(assemble_to_bytes("add eax, -1"))
        assert instrs[0].operands[1].value == 0xFFFFFFFF

    def test_size_keyword(self):
        instrs = decode_all(assemble_to_bytes("movzx eax, byte [esi]"))
        assert instrs[0].op is Op.MOVZX
        assert instrs[0].operands[1].size == 8

    def test_16bit_register_selects_width(self):
        data = assemble_to_bytes("mov ax, 5")
        assert data[0] == 0x66

    @pytest.mark.parametrize("line,data", [
        ("add bx, 0xffff", "66 83 c3 ff"),
        ("imul bx, bx, -2", "66 6b db fe"),
        ("inc ax", "66 40")])
    def test_16bit_forms_take_the_shortest_encoding(self, line, data):
        """An imm8 fits by its value at the operand size, and the
        one-byte INC/DEC take 16-bit registers too."""
        assert assemble_to_bytes(line) == bytes.fromhex(data)

    @pytest.mark.parametrize("line,data", [
        ("add word [esi], 5", "66 83 06 05"), ("inc word [esi]", "66 ff 06"),
        ("push word [esi]", "66 ff 36"), ("add dword [esi], 5", "83 06 05")])
    def test_a_word_memory_operand_selects_width(self, line, data):
        """With no register to say so, ``word`` on the memory operand
        makes the instruction 16-bit."""
        assert assemble_to_bytes(line) == bytes.fromhex(data)

    @pytest.mark.parametrize("line,text", [
        ("add bx, 0xffff", "add bx, 0xffff"),
        ("mov ax, [esi]", "mov ax, word [esi]"),
        ("mov [esi+8], dx", "mov word [esi+0x8], dx"),
        ("add word [esi], 5", "add word [esi], 0x5"),
        ("push ax", "push ax"),
        ("movzx eax, byte [esi]", "movzx eax, byte [esi]"),
        ("movsx ecx, word [esi]", "movsx ecx, word [esi]"),
        ("mov eax, [esi]", "mov eax, [esi]")])
    def test_an_instruction_prints_as_it_reassembles(self, line, text):
        """Registers by the names of the instruction's width, a narrow
        memory operand with its size keyword: the text is the bytes."""
        data = assemble_to_bytes(line)
        (instr,) = decode_all(data)
        assert str(instr) == text
        assert assemble_to_bytes(text) == data

    def test_string_ops_take_their_own_names(self):
        assert assemble_to_bytes("rep movs\nstos\nlodsd") == \
            b"\xf3\xa5\xab\xad"

    def test_rep_prefix(self):
        data = assemble_to_bytes("rep movsd")
        assert data == b"\xf3\xa5"


class TestLabels:
    def test_backward_branch_is_short(self):
        data = assemble_to_bytes("top: dec eax\njnz top")
        assert data[-2] == 0x75  # short jnz

    def test_forward_branch_resolves(self):
        source = """
        jmp done
        nop
        done: hlt
        """
        instrs = decode_all(assemble_to_bytes(source))
        jmp = instrs[0]
        assert jmp.op is Op.JMP
        # target must land on the hlt
        assert any(instr.addr == jmp.target and instr.op is Op.HLT
                   for instr in instrs)

    def test_entry_is_start_label(self):
        image = assemble("nop\nstart: hlt")
        assert image.entry == image.text.addr + 1

    def test_entry_defaults_to_base(self):
        image = assemble("nop")
        assert image.entry == DEFAULT_TEXT_BASE

    def test_call_forward(self):
        source = """
        start:
            call fn
            hlt
        fn:
            ret
        """
        instrs = decode_all(assemble_to_bytes(source))
        call = instrs[0]
        assert any(instr.addr == call.target and instr.op is Op.RET
                   for instr in instrs)

    def test_label_as_immediate(self):
        source = """
        start: mov eax, table
               hlt
        table: .dd 1, 2, 3
        """
        image = assemble(source)
        first = decode(image.text.data, addr=image.text.addr)
        assert first.operands[1].value == image.labels["table"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: nop")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmp nowhere")

    def test_label_on_own_line(self):
        data = assemble_to_bytes("loop:\n  jmp loop")
        assert data == b"\xeb\xfe"


class TestDirectives:
    def test_db(self):
        image = assemble("nop\n.db 1, 2, 0xFF")
        assert image.text.data == b"\x90\x01\x02\xff"

    def test_dd(self):
        image = assemble("nop\n.dd 0x11223344")
        assert image.text.data == b"\x90\x44\x33\x22\x11"

    def test_zero(self):
        image = assemble("nop\n.zero 4\nhlt")
        assert image.text.data == b"\x90\x00\x00\x00\x00\xf4"

    def test_align(self):
        image = assemble("nop\n.align 8\nhlt")
        assert len(image.text.data) == 9
        assert image.text.data[8] == 0xF4

    def test_org_splits_segments(self):
        image = assemble("nop\n.org 0x500000\nhlt")
        assert len(image.segments) == 2
        assert image.segments[1].addr == 0x500000

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".bogus 1")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate eax")

    def test_bad_operand(self):
        with pytest.raises(AssemblerError):
            assemble("mov eax, @#$")

    def test_unterminated_memory(self):
        with pytest.raises(AssemblerError):
            assemble("mov eax, [ebx")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("nop\nbogus eax")

    def test_empty_program_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("; nothing here")

    @pytest.mark.parametrize("line,problem", [
        ("mov eax,", "mov takes 2 operand(s), not 1"),
        ("add eax", "add takes 2 operand(s), not 1"),
        ("ret eax, ebx, ecx", "ret takes 0 or 1 operand(s), not 3"),
        ("nop eax", "nop takes 0 operand(s), not 1")])
    def test_operand_count_is_checked(self, line, problem):
        with pytest.raises(AssemblerError,
                           match=f"^line 2: {re.escape(problem)}$"):
            assemble(f"nop\n{line}")

    @pytest.mark.parametrize("line", [
        "ret eax", "int eax", "inc 5", "mov 5, eax", "loop eax",
        "imul eax, ebx, ecx", "cmovz [eax], ebx"])
    def test_operand_kind_without_an_encoding_names_the_line(self, line):
        mnemonic = line.split()[0]
        with pytest.raises(AssemblerError, match=f"^line 2: {mnemonic} "
                           "has no encoding with these operands$"):
            assemble(f"nop\n{line}")

    @pytest.mark.parametrize("line,value,bits", [
        ("mov ax, 70000", 70000, 16), ("mov ax, -32769", -32769, 16),
        ("mov eax, 0x100000005", 0x100000005, 32),
        ("add ecx, -0x80000001", -0x80000001, 32),
        ("imul ax, bx, 0x10000", 0x10000, 16),
        ("push 0x100000000", 0x100000000, 32),
        ("shl eax, 300", 300, 8), ("int 0x180", 0x180, 8),
        ("ret 0x10004", 0x10004, 16)])
    def test_an_immediate_that_does_not_fit_names_the_line(self, line,
                                                            value, bits):
        mnemonic = line.split()[0]
        with pytest.raises(AssemblerError, match=(
                f"^line 2: immediate {value} does not fit the {bits}-bit "
                f"field of {mnemonic}$")):
            assemble(f"nop\n{line}")

    @pytest.mark.parametrize("line,data", [
        ("mov ax, 65535", "66b8ffff"), ("mov ax, -32768", "66b80080"),
        ("mov eax, 0xffffffff", "b8ffffffff"),
        ("mov eax, -0x80000000", "b800000080"),
        ("shl eax, 255", "c1e0ff"), ("shl eax, -128", "c1e080"),
        ("int 0xff", "cdff"), ("ret 0xffff", "c2ffff")])
    def test_an_immediate_at_the_edge_of_its_field_assembles(self, line,
                                                              data):
        assert assemble_to_bytes(line).hex() == data

    @pytest.mark.parametrize("line", [
        "movzx ax, byte [esi]", "movzx bx, word [esi+4]",
        "movsx cx, byte [esi]", "movsx dx, word [esi]"])
    def test_movzx_movsx_into_a_16_bit_register_names_the_line(self, line):
        """No form of either has a 16-bit destination: the decoder
        would read ``66 0f b6 06`` as ``movzx eax, byte [esi]``."""
        mnemonic = line.split()[0]
        with pytest.raises(AssemblerError, match=f"^line 2: {mnemonic} "
                           "takes a 32-bit destination register$"):
            assemble(f"nop\n{line}")

    def test_loop_target_out_of_rel8_range_names_the_line(self):
        source = "start: loop far\n" + "nop\n" * 200 + "far: hlt"
        with pytest.raises(AssemblerError, match="^line 1: loop has no "
                           "encoding with these operands$"):
            assemble(source)


class TestConditionAliases:
    @pytest.mark.parametrize("mnemonic,byte", [
        ("je", 0x74), ("jz", 0x74), ("jne", 0x75), ("jnz", 0x75),
        ("jl", 0x7C), ("jge", 0x7D), ("jle", 0x7E), ("jg", 0x7F),
        ("jb", 0x72), ("jae", 0x73), ("ja", 0x77), ("js", 0x78),
    ])
    def test_jcc_aliases(self, mnemonic, byte):
        data = assemble_to_bytes(f"top: nop\n{mnemonic} top")
        assert data[1] == byte

    def test_cmov(self):
        instrs = decode_all(assemble_to_bytes("cmovne eax, ebx"))
        assert instrs[0].op is Op.CMOV
