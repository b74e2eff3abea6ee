"""A stored basic block is its entry: what a pull can make a VM run.

A BBT record holds a block's ``entry`` and ``source`` and nothing else;
the loader derives the block at ``entry`` from the VM's own memory with
the translator a cold boot runs.  Pinned here:

* a record that carries micro-op bytes of its own cannot change what the
  guest computes: the ``wide_cold`` seed-0 image, its first block given
  the layout-4 ``code`` with the first ADD2 turned into a SUB2 and
  re-keyed, pushed through a cache server with the rest of the image
  and pulled into a fresh VM -- the warm run computes the cold run's
  architected state (layout 4 stored, pulled and installed the edited
  code, and the guest computed something else);
* a hostile server can only name entries: each of these well-keyed
  records is dropped for its named reason and the warm run equals the
  cold one -- an ``entry`` other than its source's address, a source
  shorter or longer than the block, an entry in unmapped memory or past
  the address space, leftover layout-4 fields.  An entry the run never
  reaches, with the bytes memory holds there as its source, names the
  block the VM would translate there: it loads, and changes nothing.
"""

import json
from dataclasses import replace

import pytest

from repro.cacheserver import CacheServer
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.fusible.encoding import decode_stream, encode_stream
from repro.isa.fusible.opcodes import UOp
from repro.isa.x86lite import assemble
from repro.persist import (
    RemoteRepository,
    WarmStartLoader,
    capture_translations,
    config_fingerprint,
    encode_record,
    image_fingerprint,
)
from repro.translator.emit import prologue_code
from tests.test_persist import LOOP
from tests.test_templates import IMAGES


def architected(vm):
    return vm.state.exit_code, vm.state.output, list(vm.state.regs)


def booted(image) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(image)
    return vm


def cold(image):
    """A cold VM after its run, and its records."""
    vm = booted(image)
    vm.run()
    return vm, capture_translations(vm.runtime.directory, vm.state.memory)


def with_stored_code(record, translation):
    """``record`` re-keyed with the fields a layout-4 record of
    ``translation`` kept, its code as layout 4 stored it (the counter's
    LUI/ORI pair with zero immediates) and its first ADD2 a SUB2."""
    code = prologue_code(0)[:12] + translation.code[12:]
    uops = decode_stream(code)
    first = next(index for index, uop in enumerate(uops)
                 if uop.op is UOp.ADD2)
    uops[first] = replace(uops[first], op=UOp.SUB2)
    native = translation.native_addr
    fields = json.loads(record.text)
    fields.update(code=encode_stream(uops).hex())
    for name, value in (
            ("origins", [list(run) for run in translation.origins]),
            ("exits", [[stub.stub_addr - native, stub.kind,
                        stub.x86_target] for stub in translation.exits]),
            ("side_table", sorted([addr - native, x86_addr] for
                                  addr, x86_addr
                                  in translation.side_table.items())),
            ("x86_addrs", list(translation.x86_addrs)),
            ("instr_count", translation.instr_count),
            ("fused_pairs", translation.fused_pairs)):
        fields.setdefault(name, value)
    return encode_record(fields)


class TestAStoredBlockCannotChangeTheGuest:
    def test_edited_code_pushed_and_pulled_computes_the_cold_state(
            self, tmp_path):
        image = IMAGES["wide_cold-0"]
        source, records = cold(image)
        first = records[0]
        assert first["kind"] == "bbt"
        translation = source.runtime.directory.lookup(first["entry"])
        records = [with_stored_code(first, translation)] + records[1:]
        config_fp = config_fingerprint(source.config)
        with CacheServer(tmp_path / "served") as server:
            client = RemoteRepository(server.address, local=None)
            written = client.save(records, config_fp,
                                  image_fingerprint(image),
                                  config_name=source.config.name)
            vm = booted(image)
            report = vm.warm_start(client)
            client.close()
        result = vm.run()
        assert architected(vm) == architected(source)
        # the server's format check refused the record (a block's layout
        # has no code), so the pull lacked it and the VM translated it
        assert written == report.attempted == report.loaded \
            == len(records) - 1
        assert result.blocks_translated == 1


# -- hostile records naming entries --------------------------------------------

def shifted(fields, block):
    fields["source"][0][0] += 1


def shorter(fields, block):
    fields["source"][0][1] = fields["source"][0][1][:-2]


def longer(fields, block):
    fields["source"][0][1] += "00"


def unmapped(fields, block):
    fields["entry"] = fields["source"][0][0] = 0x1000_0000


def past_the_address_space(fields, block):
    fields["entry"] = fields["source"][0][0] = 1 << 32


def leftover_fields(fields, block):
    fields.update(code=block.code.hex(), origins=block.origins,
                  exits=[list(stub) for stub in block.exits],
                  side_table=[list(side) for side in block.side],
                  x86_addrs=[block.entry], instr_count=block.instr_count,
                  fused_pairs=0)


@pytest.mark.parametrize("hostile,reason", [
    (shifted, "corrupt"), (shorter, "stale_source"),
    (longer, "stale_source"), (unmapped, "stale_source"),
    (past_the_address_space, "corrupt"), (leftover_fields, "corrupt"),
], ids=lambda value: getattr(value, "__name__", ""))
def test_a_hostile_block_record_drops_and_the_run_is_cold(hostile, reason):
    image = assemble(LOOP)
    source, records = cold(image)
    victim = records[0]
    block = source.runtime.bbt.derive(victim["entry"])
    fields = json.loads(victim.text)
    hostile(fields, block)
    vm = booted(image)
    report = WarmStartLoader(vm.runtime).load_records(
        [encode_record(fields)] + records[1:])
    assert {name: value for name, value in report.to_dict().items()
            if name in (reason, "dropped")} == {reason: 1, "dropped": 1}
    assert report.loaded == len(records) - 1
    assert vm.run().blocks_translated == 1
    assert architected(vm) == architected(source)


def test_an_entry_the_run_never_reaches_loads_and_changes_nothing():
    image = assemble(LOOP)
    source, records = cold(image)
    # the instruction after the first: a block no run starts at
    entry = records[0]["entry"] + 5
    block = source.runtime.bbt.derive(entry)
    extra = encode_record({"format": records[0]["format"], "kind": "bbt",
                           "entry": entry,
                           "source": [[entry, block.source.hex()]]})
    vm = booted(image)
    report = WarmStartLoader(vm.runtime).load_records(records + [extra])
    assert (report.loaded, report.dropped) == (len(records) + 1, 0)
    assert vm.run().blocks_translated == 0
    assert architected(vm) == architected(source)
