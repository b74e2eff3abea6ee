"""The per-opcode property table (``OP_INFO``) against everything it
replaced.

* a frozen copy of the ``MicroOp.dest()/sources()/length/writes_flags``
  if-chains as they stood before the table, compared with the table over
  every opcode and generated operands;
* every legacy opcode frozenset, spelled out, against its derived view;
* the golden byte vector (``tests/golden_uops.py``): the codec may be
  rewritten, the cache/wire bytes may not move;
* the opcode table of ``docs/isa_reference.md``, row by row.
"""

import re
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import pytest
from hypothesis import given, settings

from repro.isa.fusible import opcodes
from repro.isa.fusible.encoding import (
    decode_stream,
    decode_uop,
    encode_stream,
    encode_uop,
    imm13_in_range,
)
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import (
    DEST_NONE,
    DEST_RD,
    DEST_RD_NZ,
    OP_INFO,
    UOp,
)
from repro.isa.fusible.registers import R_ZERO
from repro.isa.x86lite.registers import Cond
from tests.golden_uops import GOLDEN
from tests.strategies import uops

U = UOp

# -- the opcode sets as they were spelled out before the table ----------------

LEGACY_SETS = {
    "SHORT_OPS": {U.MOV2, U.ADD2, U.SUB2, U.AND2, U.OR2, U.XOR2, U.CMP2,
                  U.TEST2, U.ADDI2, U.NOP2},
    "R_FORM_OPS": {U.ADD, U.ADC, U.SUB, U.SBB, U.AND, U.OR, U.XOR, U.SHL,
                   U.SHR, U.SAR, U.MULL, U.MULLU, U.MULH, U.MULHU, U.SEL},
    "I_FORM_OPS": {U.ADDI, U.SUBI, U.ANDI, U.ORI, U.XORI, U.SHLI, U.SHRI,
                   U.SARI},
    "RR_FORM_OPS": {U.INCF, U.DECF},
    "LOAD_OPS": {U.LDW, U.LDHU, U.LDHS, U.LDBU, U.LDBS, U.LDF},
    "STORE_OPS": {U.STW, U.STH, U.STB, U.STF},
    "BRANCH_OPS": {U.BC, U.JMP, U.JR, U.VMEXIT, U.VMCALL, U.JCSRC,
                   U.JCSRT, U.HALT},
    "FUSIBLE_HEAD_OPS": {U.ADD, U.SUB, U.AND, U.OR, U.XOR, U.SHL, U.SHR,
                         U.SAR, U.ADDI, U.SUBI, U.ANDI, U.ORI, U.XORI,
                         U.SHLI, U.SHRI, U.SARI, U.LUI, U.INCF, U.DECF,
                         U.MOV2, U.ADD2, U.SUB2, U.AND2, U.OR2, U.XOR2,
                         U.ADDI2},
    "LONG_LATENCY_OPS": {U.MULL, U.MULH, U.MULHU, U.XLTX86, U.LDF, U.STF},
    "BARRIER_OPS": {U.VMCALL, U.VMEXIT, U.RDFLG, U.WRFLG, U.XLTX86,
                    U.LDCSR, U.JCSRC, U.JCSRT, U.HALT},
    "FLAG_READING_UOPS": {U.BC, U.SEL, U.ADC, U.SBB, U.RDFLG},
}
LEGACY_SETS["MEMORY_OPS"] = \
    LEGACY_SETS["LOAD_OPS"] | LEGACY_SETS["STORE_OPS"]
LEGACY_SETS["FUSIBLE_TAIL_OPS"] = (
    LEGACY_SETS["FUSIBLE_HEAD_OPS"] | {U.CMP2, U.TEST2, U.ADC, U.SBB, U.BC}
    | LEGACY_SETS["MEMORY_OPS"] - {U.LDF, U.STF})

#: sets that lived outside ``opcodes.py``, against the table bit that
#: replaced each
LEGACY_BITS = {
    "relative": {U.BC, U.JMP, U.JCSRC, U.JCSRT},        # verify/cfg.py
    "terminal": {U.JR, U.VMEXIT, U.HALT},               # verify/cfg.py
    "boundary": LEGACY_SETS["BRANCH_OPS"] | LEGACY_SETS["BARRIER_OPS"],
    "always_flags": {U.CMP2, U.TEST2},                  # microop.py
}
LEGACY_UNSIGNED_IMM = {U.ANDI, U.ORI, U.XORI, U.SHLI, U.SHRI, U.SARI,
                       U.VMCALL}                        # encoding.py


# -- the if-chains as they were written before the table ----------------------

def legacy_length(uop: MicroOp) -> int:
    return 2 if uop.op in LEGACY_SETS["SHORT_OPS"] else 4


def legacy_writes_flags(uop: MicroOp) -> bool:
    return uop.setflags or uop.op in (U.CMP2, U.TEST2)


def legacy_dest(uop: MicroOp) -> Optional[int]:
    op = uop.op
    if op in (U.MOV2, U.ADD2, U.SUB2, U.AND2, U.OR2, U.XOR2, U.ADDI2):
        return uop.rd
    if op in LEGACY_SETS["R_FORM_OPS"] or op in LEGACY_SETS["I_FORM_OPS"] \
            or op in LEGACY_SETS["RR_FORM_OPS"]:
        return None if uop.rd == R_ZERO else uop.rd
    if op in (U.LUI, U.RDFLG, U.LDCSR):
        return None if uop.rd == R_ZERO else uop.rd
    if op in LEGACY_SETS["LOAD_OPS"] and op is not U.LDF:
        return None if uop.rd == R_ZERO else uop.rd
    return None


def legacy_sources(uop: MicroOp) -> List[int]:
    op = uop.op
    regs: List[int] = []
    if op in (U.ADD2, U.SUB2, U.AND2, U.OR2, U.XOR2, U.CMP2, U.TEST2):
        regs = [uop.rd, uop.rs1]
    elif op in (U.MOV2,):
        regs = [uop.rs1]
    elif op in (U.ADDI2,):
        regs = [uop.rd]
    elif op in LEGACY_SETS["R_FORM_OPS"]:
        regs = [uop.rs1, uop.rs2]
        if op is U.SEL:
            regs = [uop.rs1, uop.rd]
    elif op in LEGACY_SETS["I_FORM_OPS"] \
            or op in LEGACY_SETS["RR_FORM_OPS"]:
        regs = [uop.rs1]
    elif op in LEGACY_SETS["LOAD_OPS"]:
        regs = [uop.rs1]
    elif op in LEGACY_SETS["STORE_OPS"]:
        regs = [uop.rs1] if op is U.STF else [uop.rs1, uop.rd]
    elif op in (U.JR, U.VMEXIT, U.WRFLG):
        regs = [uop.rs1]
    return [reg for reg in regs if reg != R_ZERO]


class TestTableAgainstLegacyChains:
    @given(operands=uops)
    @settings(max_examples=150, deadline=None)
    def test_every_opcode_over_generated_operands(self, operands):
        for op in UOp:
            uop = replace(operands, op=op)
            assert uop.dest() == legacy_dest(uop), uop
            assert uop.sources() == legacy_sources(uop), uop
            assert uop.length == legacy_length(uop), uop
            assert uop.is_short == (legacy_length(uop) == 2), uop
            assert uop.writes_flags == legacy_writes_flags(uop), uop

    def test_the_zero_register_is_neither_source_nor_destination(self):
        for op in UOp:
            uop = MicroOp(op, rd=R_ZERO, rs1=R_ZERO, rs2=R_ZERO)
            assert uop.sources() == []
            assert uop.dest() == legacy_dest(uop)

    @pytest.mark.parametrize("op", list(UOp), ids=lambda op: op.value)
    def test_class_properties(self, op):
        uop = MicroOp(op)
        assert uop.is_branch == (op in LEGACY_SETS["BRANCH_OPS"])
        assert uop.is_load == (op in LEGACY_SETS["LOAD_OPS"])
        assert uop.is_store == (op in LEGACY_SETS["STORE_OPS"])
        assert uop.reads_flags == (op in LEGACY_SETS["FLAG_READING_UOPS"])
        for imm in (-4097, -4096, -1, 0, 4095, 4096, 8191, 8192):
            expected = 0 <= imm <= 0x1FFF if op in LEGACY_UNSIGNED_IMM \
                else -4096 <= imm <= 4095
            assert imm13_in_range(op, imm) == expected


class TestTableShape:
    def test_every_uop_has_exactly_one_row(self):
        assert set(OP_INFO) == set(UOp)
        assert all(info.op is op for op, info in OP_INFO.items())

    def test_opcode_numbers_are_unique_per_format(self):
        for length, field_bits in ((2, 5), (4, 6)):
            numbers = [info.number for info in OP_INFO.values()
                       if info.length == length]
            assert len(numbers) == len(set(numbers))
            assert all(0 <= number < 1 << field_bits for number in numbers)

    def test_rows_are_well_formed(self):
        for info in OP_INFO.values():
            assert info.form in opcodes.FORMS
            assert info.length == (2 if info.form in opcodes.SHORT_FORMS
                                   else 4)
            assert info.dest in (DEST_NONE, DEST_RD, DEST_RD_NZ)
            assert set(info.sources) <= {"rd", "rs1", "rs2"}

    @pytest.mark.parametrize("name", sorted(LEGACY_SETS))
    def test_legacy_frozenset_equals_its_derived_view(self, name):
        view = getattr(opcodes, name)
        assert isinstance(view, frozenset)
        assert view == LEGACY_SETS[name]

    @pytest.mark.parametrize("bit", sorted(LEGACY_BITS))
    def test_legacy_private_set_equals_its_table_bit(self, bit):
        assert {op for op, info in OP_INFO.items()
                if getattr(info, bit)} == LEGACY_BITS[bit]
        assert {op for op, info in OP_INFO.items()
                if info.form == "U13"} == LEGACY_UNSIGNED_IMM

    def test_opcodes_hash_in_c(self):
        # Enum.__hash__ is a Python-level function; every set and table
        # lookup by opcode used to pay for a call to it
        assert UOp.__hash__ is object.__hash__
        assert Cond.__hash__ is int.__hash__
        assert {op: op for op in UOp}[UOp("add")] is UOp.ADD


# -- the byte format ----------------------------------------------------------

def golden_uop(row) -> MicroOp:
    name, rd, rs1, rs2, imm, cond, fused, setflags, _hex = row
    return MicroOp(UOp(name), rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                   cond=None if cond is None else Cond(cond),
                   fused=bool(fused), setflags=bool(setflags))


class TestGoldenBytes:
    def test_vector_covers_every_opcode_and_variant(self):
        assert {row[0] for row in GOLDEN} == {op.value for op in UOp}
        for op in UOp:
            variants = {(row[6], row[7]) for row in GOLDEN
                        if row[0] == op.value}
            assert (0, 0) in variants and (1, 0) in variants
            # .f variants exist exactly where the form carries the bit
            carries_f = OP_INFO[op].form in ("S2", "S2I", "R2", "R3",
                                             "SEL", "I13", "U13")
            assert ((0, 1) in variants) == carries_f

    @pytest.mark.parametrize("row", GOLDEN, ids=lambda row: "-".join(
        (row[0], "F" * row[6] + "f" * row[7] or "plain")))
    def test_encode_and_decode_match_the_golden_bytes(self, row):
        uop, data = golden_uop(row), bytes.fromhex(row[8])
        assert encode_uop(uop) == data
        assert decode_uop(data) == uop
        assert len(data) == uop.length

    def test_stream_codec_over_the_whole_vector(self):
        stream = [golden_uop(row) for row in GOLDEN]
        data = encode_stream(stream)
        assert data == b"".join(bytes.fromhex(row[8]) for row in GOLDEN)
        assert decode_stream(data) == stream


# -- docs/isa_reference.md ----------------------------------------------------

ISA_REFERENCE = Path(__file__).resolve().parent.parent / "docs" / \
    "isa_reference.md"
_BIT_COLUMNS = ("load", "store", "branch", "barrier", "terminal",
                "relative", "head", "tail", "long_latency")


def reference_row(info) -> tuple:
    """One row of the doc's opcode table, as ``OP_INFO`` has it."""
    dest = {DEST_NONE: "-", DEST_RD: "rd", DEST_RD_NZ: "rd unless R31"}
    flags = [name for name, held in (("reads", info.reads_flags),
                                     ("always writes", info.always_flags))
             if held]
    classes = [name.replace("_", "-") for name in _BIT_COLUMNS
               if getattr(info, name)]
    return (f"`{info.op.name}`", str(8 * info.length), info.form,
            str(info.number), dest[info.dest],
            ", ".join(info.sources) or "-", ", ".join(flags) or "-",
            ", ".join(classes) or "-")


def documented_rows() -> list:
    text = ISA_REFERENCE.read_text(encoding="utf-8")
    section = text.split("### Opcode table", 1)[1].split("\n### ", 1)[0]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in section.splitlines() if line.startswith("| `")]
    return rows


class TestIsaReference:
    def test_opcode_table_matches_op_info_row_by_row(self):
        assert documented_rows() == [reference_row(OP_INFO[op])
                                     for op in UOp]

    def test_group_table_names_every_opcode_once(self):
        text = ISA_REFERENCE.read_text(encoding="utf-8")
        section = text.split("### Micro-ops", 1)[1].split("\n### ", 1)[0]
        named = re.findall(r"[A-Z][A-Z0-9]+", " ".join(
            line.split("|")[2] for line in section.splitlines()
            if line.startswith("| ") and "---" not in line
            and not line.startswith("| group")))
        known = [name for name in named if name in UOp.__members__]
        assert sorted(known) == sorted(UOp.__members__)
