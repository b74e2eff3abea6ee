"""Tests for the native HAloop (Fig. 6a) — hardware-accelerated BBT."""

import pytest

from repro.hwassist.haloop import haloop_uops, run_haloop
from repro.isa.fusible import FusibleMachine, decode_stream, \
    encode_stream
from repro.isa.x86lite import assemble
from repro.memory import AddressSpace, load_image
from repro.translator import crack
from tests.sbt_oracle import scan_block

LOOP_ADDR = 0x1000_0000
CODE_PTR = 0x2000_0000


def machine_with(source):
    image = assemble(source)
    memory = AddressSpace()
    entry = load_image(image, memory)
    return FusibleMachine(memory), entry


class TestHALoop:
    def test_translates_block_body(self):
        machine, entry = machine_with(
            "start:\nmov eax, 1\nadd eax, 2\nlea ebx, [eax+eax*2]\nret")
        run = run_haloop(machine, LOOP_ADDR, entry, CODE_PTR)
        assert run.stopped_on == "cti"
        assert run.instructions_translated == 3  # body, not the RET

    def test_output_matches_software_cracker(self):
        source = "start:\nmov eax, 1\nadd eax, 2\nlea ebx, [eax+eax*2]\nret"
        machine, entry = machine_with(source)
        run = run_haloop(machine, LOOP_ADDR, entry, CODE_PTR)
        expected = []
        for instr in scan_block(machine.memory, entry)[:-1]:
            expected.extend(crack(instr).uops)
        produced = decode_stream(run.code_bytes)
        assert [str(u) for u in produced] == [str(u) for u in expected]

    def test_stops_on_complex(self):
        machine, entry = machine_with(
            "start:\nmov eax, 1\nmov ebx, 0\ndiv ebx\nhlt")
        run = run_haloop(machine, LOOP_ADDR, entry, CODE_PTR)
        assert run.stopped_on == "complex"
        assert run.instructions_translated == 2

    def test_pointer_bookkeeping(self):
        machine, entry = machine_with("start:\nmov eax, 1\nret")
        run = run_haloop(machine, LOOP_ADDR, entry, CODE_PTR)
        assert run.final_x86_pc == entry + 5  # consumed "mov eax, 1"
        assert run.uop_bytes_emitted == len(run.code_bytes)
        assert run.uop_bytes_emitted > 0

    def test_loop_cost_is_low(self):
        # the whole point of the assist: a handful of micro-ops per
        # translated instruction instead of ~105
        machine, entry = machine_with(
            "start:\n" + "\n".join(["add eax, 1"] * 10) + "\nret")
        run = run_haloop(machine, LOOP_ADDR, entry, CODE_PTR)
        per_instr = run.uops_executed / run.instructions_translated
        assert per_instr < 20

    def test_loop_contains_fused_pairs(self):
        uops = haloop_uops()
        assert sum(1 for u in uops if u.fused) == 2  # the :: pairs

    def test_loop_roundtrips_through_encoder(self):
        uops = haloop_uops()
        assert [str(u) for u in decode_stream(encode_stream(uops))] == \
            [str(u) for u in uops]

    def test_runaway_guard(self):
        machine, entry = machine_with("start:\nmov eax, 1\nret")
        with pytest.raises(Exception):
            run_haloop(machine, LOOP_ADDR, entry, CODE_PTR, max_uops=3)
