"""A stored translation is its entry and path: what a pull can make a
VM run.

A BBT record holds a block's ``entry`` and ``source`` and nothing else;
the loader derives the block at ``entry`` from the VM's own memory with
the translator a cold boot runs.  An SBT record adds its path
(``x86_addrs``, ``loops``); the loader re-forms the trace along it and
builds it with the VM's own SBT.  Pinned here:

* a superblock record that carries micro-op bytes of its own cannot
  change what the guest computes: the ``hot_loop`` seed-0 image, each
  superblock given its layout-5 ``code`` with every ADD2 turned into a
  SUB2 and re-keyed, pushed through a cache server with the rest of the
  image and pulled into a fresh VM -- the warm run computes the cold
  run's registers, flags and output (layout 5 stored, pulled and
  installed the edited code, and the guest printed 3467, not 2811);
* a hostile server can only name paths: a superblock record with one
  entry of its path swapped, dropped or appended, ``loops`` flipped or
  its ``entry`` moved, re-keyed and pushed, is refused (stale or
  corrupt), or the warm run computes the cold run's state;
* a block record that carries micro-op bytes of its own cannot change
  what the guest computes: the ``wide_cold`` seed-0 image, its first
  block given
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
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from tests.stored import with_stored_code
from tests.test_persist import LOOP
from tests.test_templates import IMAGES


def architected(vm):
    return (vm.state.exit_code, vm.state.output, list(vm.state.regs),
            vm.state.flags_tuple())


def booted(image) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(image)
    return vm


def cold(image):
    """A cold VM after its run, and its records."""
    vm = booted(image)
    vm.run()
    return vm, capture_translations(vm.runtime.directory, vm.state.memory)


def with_layout4_code(record, translation):
    """``record`` re-keyed with the fields a layout-4 record of
    ``translation`` kept, its code as layout 4 stored it (the counter's
    LUI/ORI pair with zero immediates) and its first ADD2 a SUB2."""
    code = prologue_code(0)[:12] + translation.code[12:]
    uops = decode_stream(code)
    first = next(index for index, uop in enumerate(uops)
                 if uop.op is UOp.ADD2)
    uops[first] = replace(uops[first], op=UOp.SUB2)
    return encode_record(with_stored_code(
        json.loads(record.text), translation, encode_stream(uops)))


class TestAStoredBlockCannotChangeTheGuest:
    def test_edited_code_pushed_and_pulled_computes_the_cold_state(
            self, tmp_path):
        image = IMAGES["wide_cold-0"]
        source, records = cold(image)
        first = records[0]
        assert first["kind"] == "bbt"
        translation = source.runtime.directory.lookup(first["entry"])
        records = [with_layout4_code(first, translation)] + records[1:]
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


def with_subtracting_code(record, translation):
    """``record`` re-keyed as layout 5 kept a superblock: its code, with
    every ADD2 a SUB2 (the same length), and the metadata to place it."""
    uops = translation.uops
    code = encode_stream([replace(uop, op=UOp.SUB2) if uop.op is UOp.ADD2
                          else uop for uop in uops])
    assert len(code) == len(translation.code) != 0
    return encode_record(with_stored_code(json.loads(record.text),
                                          translation, code))


def pushed_and_pulled(records, source, image, server):
    """A fresh VM of ``image`` warm-started from ``records`` pushed
    through ``server`` under ``source``'s fingerprints, and its report."""
    client = RemoteRepository(server.address, local=None)
    try:
        client.save(records, config_fingerprint(source.config),
                    image_fingerprint(image),
                    config_name=source.config.name)
        vm = booted(image)
        report = vm.warm_start(client)
    finally:
        client.close()
    return vm, report


class TestAStoredSuperblockCannotChangeTheGuest:
    def test_edited_code_pushed_and_pulled_computes_the_cold_state(
            self, tmp_path):
        image = IMAGES["hot_loop-0"]
        source, records = cold(image)
        directory = source.runtime.directory
        superblocks = [record for record in records
                       if record["kind"] == "sbt"]
        assert len(superblocks) == 5
        forged = [with_subtracting_code(record, directory.lookup(
            record["entry"])) if record["kind"] == "sbt" else record
            for record in records]
        with CacheServer(tmp_path / "served") as server:
            vm, report = pushed_and_pulled(forged, source, image, server)
        vm.run()
        assert architected(vm) == architected(source)
        # the server's format check refused every superblock record (a
        # superblock's layout has no code): the VM translated them
        assert report.attempted == report.loaded \
            == len(records) - len(superblocks)
        assert vm.runtime.sbt.superblocks_translated == len(superblocks)


# -- hostile records naming paths ----------------------------------------------

def mutate_path(fields, draw) -> None:
    """One edit of a superblock record's path: two entries swapped (a
    one-entry path's moved by a byte), one dropped, one appended (a
    block its source names, the head, or a byte past the last), ``loops``
    flipped, or the head moved."""
    path = fields["x86_addrs"]
    how = draw(st.sampled_from(["swap", "drop", "append", "loops", "entry"]))
    if how == "swap" and len(path) > 1:
        first = draw(st.integers(0, len(path) - 2))
        second = draw(st.integers(first + 1, len(path) - 1))
        path[first], path[second] = path[second], path[first]
    elif how == "swap":
        path[0] += draw(st.sampled_from([-1, 1]))
    elif how == "drop":
        del path[draw(st.integers(0, len(path) - 1))]
    elif how == "append":
        path.append(draw(st.sampled_from(
            [addr for addr, _data in fields["source"]]
            + [fields["entry"], path[-1] + 1])))
    elif how == "loops":
        fields["loops"] = not fields["loops"]
    else:
        fields["entry"] += draw(st.sampled_from([-2, -1, 1, 2]))


@pytest.fixture(scope="module")
def hot_loop_cold():
    image = IMAGES["hot_loop-0"]
    return (image, *cold(image))


@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_mutated_path_is_refused_or_computes_the_cold_state(
        hot_loop_cold, data):
    image, source, records = hot_loop_cold
    position = data.draw(st.sampled_from(
        [index for index, record in enumerate(records)
         if record["kind"] == "sbt"]))
    fields = json.loads(records[position].text)
    mutate_path(fields, data.draw)
    mutant = encode_record(fields)
    with tempfile.TemporaryDirectory() as store, CacheServer(store) as server:
        vm, report = pushed_and_pulled(
            [mutant if index == position else record
             for index, record in enumerate(records)], source, image, server)
    assert report.attempted == len(records)
    assert report.dropped == report.stale_source + report.corrupt <= 1
    vm.run()
    assert architected(vm) == architected(source)


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
