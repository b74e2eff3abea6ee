"""Templates are the cracker, by search.

``translator/templates.py`` serves an instruction's micro-op bytes, and
what ends a block after it, by patching templates traced from the one
decoder, the one cracker and the one terminator rule; BBT installs what
it joins from those, the profiling-prologue template and the exit-stub
template.  Everything here compares that byte path with the object path
it replaced -- ``decode`` + ``crack`` + ``encode_stream``, ``scan_block``
(kept in ``tests/sbt_oracle.py``), the terminator and its stubs as
``MicroOp`` lists -- whose parts stay callable as the reference.
"""

from __future__ import annotations

import importlib.util
import sys
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoDesignedVM, vm_be, vm_soft
from repro.isa.fusible import FusibleMachine, UOp
from repro.isa.fusible.encoding import (
    UopEncodeError,
    decode_stream,
    encode_stream,
    stream_length,
)
from repro.isa.x86lite import assemble, decode
from repro.isa.x86lite.decoder import DecodeError
from repro.memory import AddressSpace, load_image
from repro.translator import BasicBlockTranslator, TranslationDirectory
from repro.translator import templates
from repro.translator.code_cache import expand_origins
from repro.translator.cracker import crack
from repro.translator.emit import (
    direct_exit_stub,
    exit_code,
    indirect_exit,
    profile_prologue,
    prologue_code,
    side_entries,
    terminator,
)
from repro.translator.templates import Shape, shape_at
from repro.workloads.programs import PROGRAMS
from tests.sbt_oracle import scan_block
from tests.strategies import boundary_values, raw_instructions

ADDR = 0x400000

# the benchmark's program generator (``perf/`` is not a package)
_spec = importlib.util.spec_from_file_location(
    "perf_gen", Path(__file__).resolve().parent.parent / "perf" / "gen.py")
gen = sys.modules["perf_gen"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


#: instruction addresses: a usual one, both ends of memory, and ones
#: whose return address has its low 13 bits / everything above them clear
addrs = st.sampled_from([ADDR, 0, 0xFF0, 0x1FFB, 0x7FFFFFF0, 0xFFFFDFFB,
                         0xFFFFFFF0])


def object_path(raw: bytes, addr: int = ADDR):
    """``(cracked, encoded body)`` the way BBT built it before."""
    cracked = crack(decode(raw, addr=addr))
    return cracked, encode_stream(cracked.uops)


def values_of(shape: Shape, raw: bytes, addr: int = ADDR):
    return [addr] + [int.from_bytes(raw[start:end], "little", signed=signed)
                     for start, end, signed in shape.fields]


def serving(shape: Shape, raw: bytes, addr: int = ADDR):
    """The sibling body templates whose guards ``raw`` answers alike."""
    values = values_of(shape, raw, addr)
    return [template for template in shape.bodies
            if template.fill(values) is not None]


def table_size():
    shapes = [entry for entry in templates._SHAPES.values()
              if isinstance(entry, Shape)]
    return (len(templates._SHAPES),
            sum(len(shape.bodies) + len(shape.endings) for shape in shapes))


# -- (a) one instruction -------------------------------------------------------

class TestInstructionTemplates:
    @given(raw=raw_instructions(), addr=addrs)
    @settings(max_examples=600, deadline=None)
    def test_body_and_ending_equal_the_object_path(self, raw, addr):
        try:
            instr = decode(raw, addr=addr)
        except DecodeError:
            with pytest.raises(DecodeError):
                shape_at(raw)
            return
        cracked = crack(instr)
        try:
            expected = encode_stream(cracked.uops), len(cracked.uops)
        except UopEncodeError:      # ret imm16: 4 + imm16 in an imm13
            with pytest.raises(UopEncodeError):
                shape = shape_at(raw, 0, addr)
                shape.body(raw, 0, addr)
            with pytest.raises(UopEncodeError):
                shape_at(raw, 0, addr).ending(raw, 0, addr)
            return
        shape = shape_at(raw, 0, addr)
        assert (shape.length, shape.cti, shape.cmplx, shape.op,
                shape.cond) == (instr.length, cracked.cti, cracked.cmplx,
                                instr.op, instr.cond)
        assert shape.body(raw, 0, addr) == expected
        assert shape.body(b"\x90" + raw, 1, addr) == expected
        assert len(serving(shape, raw, addr)) == 1  # siblings never overlap
        # and what would end a block after it (any instruction can: the
        # block-size limit)
        head, stubs = terminator(instr, cracked)
        assert shape.ending(raw, 0, addr) == (
            encode_stream(head), len(head),
            [offset for offset, _ in side_entries(head)], stubs)

    @given(raw=raw_instructions(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_a_template_serves_every_value_with_its_guard_outcomes(
            self, raw, data):
        try:
            shape = shape_at(raw)
            shape.body(raw, 0, ADDR)
        except (DecodeError, UopEncodeError):
            return
        if not shape.fields:
            return
        (first,) = serving(shape, raw)
        # the same shape with other values in its fields
        other = bytearray(raw)
        for start, end, _signed in shape.fields:
            value = data.draw(boundary_values(end - start))
            other[start:end] = value.to_bytes(end - start, "little",
                                              signed=True)
        other = bytes(other)
        assert shape_at(other) is shape
        answers_alike = first.fill(values_of(shape, other)) is not None
        siblings = len(shape.bodies)
        try:
            cracked, expected = object_path(other)
        except UopEncodeError:
            return
        assert shape.body(other, 0, ADDR) == (expected, len(cracked.uops))
        if answers_alike:   # built from one value, it served the other
            assert len(shape.bodies) == siblings
        assert len(serving(shape, other)) == 1

    def test_disp8_and_disp32_of_one_value_are_two_shapes_one_body(self):
        short = b"\x8b\x43\x10"                 # mov eax, [ebx+0x10]
        wide = b"\x8b\x83\x10\x00\x00\x00"
        assert shape_at(short) is not shape_at(wide)
        assert shape_at(short).body(short) == shape_at(wide).body(wide)

    def test_a_template_holds_no_value(self):
        raw = b"\x81\xc3\x78\x56\x34\x12"       # add ebx, 0x12345678
        shape = shape_at(raw)
        code, _count = shape.body(raw)
        (template,) = serving(shape, raw, 0)
        assert template.code != code
        assert [uop.imm for uop in decode_stream(template.code)
                if uop.op in (UOp.LUI, UOp.ORI)] == [0, 0]
        constants = {guard[3] for guard in template.guards}
        for _source, chain in [guard[:2] for guard in template.guards] \
                + [hole[4:] for hole in template.holes]:
            constants |= {constant for _step, constant in chain}
        assert not constants & {0x12345678, 0x12345678 >> 13, 0x1678}

    def test_a_call_pushes_the_return_address_of_where_it_is(self):
        raw = b"\xe8\x10\x00\x00\x00"             # call +0x10
        shape = shape_at(raw)
        for addr in (0x400000, 0x400123, 0x12346000, 0xFFFFFFFB):
            cracked, expected = object_path(raw, addr)
            assert shape.body(raw, 0, addr) == (expected, len(cracked.uops))
            _head, _count, _vmcalls, stubs = shape.ending(raw, 0, addr)
            assert stubs == [("jump", (addr + 0x15) & 0xFFFFFFFF)]


# -- (b) prologue and exit stub ------------------------------------------------

class TestFixedShapeTemplates:
    @given(target=st.integers(0, 0xFFFFFFFF), addr=st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_exit_stub(self, target, addr):
        assert exit_code(target) == \
            (encode_stream(direct_exit_stub(target, addr)), 3)
        assert exit_code(None) == (encode_stream(indirect_exit(addr)), 1)

    @given(counter=st.integers(0, 0xFFFFFFFF), addr=st.integers(0, 2 ** 32))
    @settings(max_examples=300, deadline=None)
    def test_profile_prologue(self, counter, addr):
        assert prologue_code(counter) == \
            encode_stream(profile_prologue(counter, addr))


# -- (c) whole cold boots ------------------------------------------------------

def object_translation(memory, translation, max_block_instrs=64):
    """The block ``translation`` covers, built the way BBT built it
    before: ``scan_block``, the prologue, ``crack`` per instruction, the
    terminator and its stubs as ``MicroOp`` lists, ``encode_stream``."""
    instrs = scan_block(memory, translation.entry, max_block_instrs)
    last = instrs[-1]
    uops = []
    if translation.counter_addr is not None:
        uops += profile_prologue(translation.counter_addr,
                                 translation.entry)
    for instr in instrs[:-1]:
        uops += crack(instr).uops
    head, stubs = terminator(last, crack(last))
    uops += head
    exits = []
    for kind, x86_target in stubs:
        exits.append((stream_length(uops), kind, x86_target))
        uops += indirect_exit(last.addr) if x86_target is None \
            else direct_exit_stub(x86_target, last.addr)
    return {
        "code": encode_stream(uops),
        "origins": [[addr, len(list(run))] for addr, run
                    in groupby(uop.x86_addr for uop in uops)],
        "exits": exits,
        "side_table": {offset: (addr if addr is not None
                                else translation.entry)
                       for offset, addr in side_entries(uops)},
        "counts": (len(instrs), len(uops)),
    }


def installed(translation):
    base = translation.native_addr
    return {
        "code": translation.code,
        "origins": translation.origins,
        "exits": [(stub.stub_addr - base, stub.kind, stub.x86_target)
                  for stub in translation.exits],
        "side_table": {addr - base: x86_addr for addr, x86_addr
                       in translation.side_table.items()},
        "counts": (translation.instr_count, translation.uop_count),
    }


def cold_boot(image, config=None):
    vm = CoDesignedVM(config or vm_soft(), hot_threshold=50)
    vm.load(image)
    vm.run()
    return vm


IMAGES = {name: assemble(source) for name, source in PROGRAMS.items()}
IMAGES.update({f"{name}-{seed}": assemble(gen.generate_source(shape, seed))
               for name, shape in (("hot_loop", gen.HOT_LOOP),
                                   ("wide_cold", gen.WIDE_COLD))
               for seed in (0, 1)})


class TestColdBoot:
    @pytest.mark.parametrize("name", sorted(IMAGES))
    def test_installs_what_the_object_path_produces(self, name):
        vm = cold_boot(IMAGES[name])
        translations = vm.runtime.directory.bbt_cache.translations
        assert translations
        for translation in translations:
            assert installed(translation) == \
                object_translation(vm.state.memory, translation)
            assert [uop.x86_addr for uop in translation.uops] == \
                expand_origins(translation.origins)

    def test_the_block_size_limit_ends_in_a_fallthrough_stub(self):
        image = assemble("\n".join(["add eax, 0x1234"] * 20 + ["hlt"]))
        memory = AddressSpace()
        entry = load_image(image, memory)
        bbt = BasicBlockTranslator(TranslationDirectory(memory), memory,
                                   max_block_instrs=8)
        translation = bbt.translate(entry)
        assert installed(translation) == \
            object_translation(memory, translation, max_block_instrs=8)
        assert [stub.kind for stub in translation.exits] == ["fallthrough"]

    # -- (d) nothing remembered about a program -------------------------------

    def test_a_second_image_of_the_shape_adds_no_table_entry(self):
        # a seed decides which register plays which role (so which
        # ModRM bytes, so which shapes) and every value: take seeds
        # that agree on the registers and differ in the values
        by_roles = {}
        for seed in range(200):
            roles = list(gen._REGS)
            gen.random.Random(seed).shuffle(roles)
            by_roles.setdefault(tuple(roles), []).append(seed)
        first, second, third = next(seeds for seeds in by_roles.values()
                                    if len(seeds) >= 3)[:3]
        sources = [gen.generate_source(gen.WIDE_COLD, seed)
                   for seed in (first, second, third)]
        assert len(set(sources)) == 3
        cold_boot(assemble(sources[0]))
        before = table_size()
        cold_boot(assemble(sources[1]))
        cold_boot(assemble(sources[2]))
        assert table_size() == before

    # -- (f) VM.be ------------------------------------------------------------

    @pytest.mark.parametrize("name", ["quicksort", "mixhash",
                                      "wide_cold-0"])
    def test_vm_be_installs_the_same_bytes(self, name):
        soft, be = cold_boot(IMAGES[name]), cold_boot(IMAGES[name], vm_be())
        assert be.xlt_unit is not None and soft.xlt_unit is None

        def bytes_of(vm):
            return [(t.entry, t.code, t.origins) for t
                    in vm.runtime.directory.bbt_cache.translations]
        assert bytes_of(be) == bytes_of(soft)
        bbt = be.runtime.bbt
        # every body instruction went through the unit, once
        body_instrs = bbt.instrs_translated - bbt.blocks_translated
        assert be.xlt_unit.invocations == body_instrs
        assert soft.runtime.bbt.xlt_unit is None


# -- (e) self-modified code ----------------------------------------------------

def test_retranslating_a_stored_over_block_yields_the_new_immediate():
    old, new = (assemble(f"start: mov eax, {a}\nadd ebx, {b}\n"
                         f"mov [edi+{c}], eax\nhlt")
                for a, b, c in ((0x11111, 0x222, 0x40), (0x33333, 0x444, 0x7C)))
    memory = AddressSpace()
    entry = load_image(old, memory)
    directory = TranslationDirectory(memory)
    bbt = BasicBlockTranslator(directory, memory, embed_profiling=False)
    machine = FusibleMachine(memory)

    def run(translation):
        machine.regs[3], machine.regs[7] = 1, 0x600000
        event = machine.run(translation.native_addr, max_uops=32)
        assert event.kind == "vmcall"
        return machine.regs[0], machine.regs[3], memory.read_u32(0x600000
                                                                 + 0x7C)

    first = bbt.translate(entry)
    assert run(first) == (0x11111, 0x223, 0)
    table = table_size()
    # the guest stores other values over the block's immediates and
    # displacement: the same shapes, so nothing to learn -- and nothing
    # in the table that the store could have made stale
    assert len(new.text.data) == len(old.text.data)
    memory.write(entry, bytes(new.text.data))
    directory.flush("bbt")
    second = bbt.translate(entry)
    assert second.native_addr == first.native_addr   # over the old run
    assert second.code != first.code
    assert run(second) == (0x33333, 0x445, 0x33333)
    assert table_size() == table
