"""Hardware-assist tests: XLTx86 unit, BBB detector."""

import pytest
from hypothesis import given, settings

from repro.hwassist import (
    BranchBehaviorBuffer,
    XLTX86_LATENCY,
    XLTx86Unit,
)
from repro.isa.x86lite import assemble_to_bytes, decode, encode
from repro.translator import crack
from tests.strategies import instructions


class TestXLTx86:
    def test_simple_decode(self):
        unit = XLTx86Unit()
        result = unit.translate(b"\x01\xd8")  # add eax, ebx
        assert result.x86_ilen == 2
        assert not result.flag_cmplx and not result.flag_cti
        assert result.uop_byte_count == len(result.uop_bytes)
        assert len(result.uop_bytes_padded) == 16

    def test_matches_software_cracker(self):
        unit = XLTx86Unit()
        raw = b"\x8b\x44\x8b\x10"  # mov eax, [ebx+ecx*4+0x10]
        instr = decode(raw, addr=0x400000)
        software = crack(instr)
        hardware = unit.translate(raw, addr=0x400000)
        assert [str(u) for u in hardware.uops] == \
            [str(u) for u in software.uops]

    def test_cti_flag(self):
        unit = XLTx86Unit()
        result = unit.translate(b"\xc3")  # ret
        assert result.flag_cti and not result.flag_cmplx

    def test_complex_flag_for_div(self):
        unit = XLTx86Unit()
        result = unit.translate(b"\xf7\xf3")  # div ebx
        assert result.flag_cmplx
        assert unit.complex_punts == 1

    def test_complex_flag_for_rep_string(self):
        unit = XLTx86Unit()
        assert unit.translate(b"\xf3\xa5").flag_cmplx

    def test_complex_flag_for_bad_bytes(self):
        unit = XLTx86Unit()
        result = unit.translate(b"\x06\x00")
        assert result.flag_cmplx
        assert result.x86_ilen == 0

    def test_oversized_crack_punts(self):
        # large-displacement RMW cracks to > 16 bytes of micro-ops
        raw = encode(decode(assemble_to_bytes(
            "add [ebx+ecx*4+0x12345678], eax")))
        result = XLTx86Unit().translate(raw)
        assert result.flag_cmplx
        assert result.x86_ilen == len(raw)

    def test_latency_constant(self):
        assert XLTX86_LATENCY == 4  # Section 4.2

    @given(instr=instructions)
    @settings(max_examples=150, deadline=None)
    def test_hardware_equals_software_property(self, instr):
        raw = encode(instr, addr=0x400000)
        decoded = decode(raw, addr=0x400000)
        software = crack(decoded)
        result = XLTx86Unit().translate(raw, addr=0x400000)
        if result.flag_cmplx:
            # only legitimate punts: truly complex or oversized body
            assert software.cmplx or software.byte_count > 16
        else:
            assert [str(u) for u in result.uops] == \
                [str(u) for u in software.uops]
            assert result.x86_ilen == decoded.length


class TestBranchBehaviorBuffer:
    def test_detects_hot_block(self):
        bbb = BranchBehaviorBuffer(hot_threshold=5, entries=16)
        for _ in range(5):
            bbb.record_entry(0x400000)
        assert bbb.take_hot() == 0x400000
        assert bbb.take_hot() is None

    def test_reports_each_hot_block_once(self):
        bbb = BranchBehaviorBuffer(hot_threshold=2, entries=16)
        for _ in range(10):
            bbb.record_entry(0x400000)
        assert bbb.take_hot() == 0x400000
        assert bbb.take_hot() is None

    def test_finite_capacity_replacement(self):
        bbb = BranchBehaviorBuffer(hot_threshold=100, entries=4)
        for addr in range(8):
            bbb.record_entry(0x400000 + addr * 16)
        assert bbb.occupancy == 4
        assert bbb.replacements == 4

    def test_replacement_loses_cold_counts(self):
        # the approximation the hardware makes: evicted entries restart
        bbb = BranchBehaviorBuffer(hot_threshold=3, entries=1)
        bbb.record_entry(0x1000)
        bbb.record_entry(0x1000)
        bbb.record_entry(0x2000)   # evicts 0x1000
        bbb.record_entry(0x1000)   # starts over at 1
        assert bbb.take_hot() is None

    def test_recency_protects_entries(self):
        bbb = BranchBehaviorBuffer(hot_threshold=3, entries=2)
        bbb.record_entry(0x1000)
        bbb.record_entry(0x2000)
        bbb.record_entry(0x1000)   # refreshes 0x1000
        bbb.record_entry(0x3000)   # evicts 0x2000 (least recent)
        bbb.record_entry(0x1000)   # third hit -> hot
        assert bbb.take_hot() == 0x1000

    def test_forget_and_reset(self):
        bbb = BranchBehaviorBuffer(hot_threshold=2, entries=8)
        bbb.record_entry(0x1000)
        bbb.record_entry(0x1000)
        bbb.forget(0x1000)
        assert not bbb.is_hot(0x1000)
        bbb.reset()
        assert bbb.occupancy == 0

    def test_record_edge_is_noop(self):
        bbb = BranchBehaviorBuffer(hot_threshold=2)
        bbb.record_edge(0x1000, 0x2000)  # must not raise

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BranchBehaviorBuffer(hot_threshold=2, entries=0)
