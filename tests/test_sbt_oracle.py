"""The SBT installs, byte for byte, what the pre-template pipeline did.

``tests/sbt_oracle.py`` keeps that pipeline -- ``scan_block``, ``crack``,
the passes over ``MicroOp`` lists, ``encode_stream`` -- and checks every
superblock a VM translates against it at the moment it is translated:
code, origins, exits, side table, counts, and what each pass eliminated.
Each translation's ``source``, and the record capture writes from it,
is held the same way to the ``decode_at`` path the walk replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoDesignedVM, interp_sbt, vm_be, vm_fe, vm_soft
from repro.isa.x86lite import assemble
from repro.isa.x86lite.decoder import decode_at
from repro.persist import capture_translations
from tests.sbt_oracle import checking_sbt
from tests.source_oracle import translations
from tests.test_random_branchy import branchy_program
from tests.test_templates import IMAGES
from tests.test_vm_end_to_end import random_loop_program

CONFIGS = {"vm_soft": vm_soft, "vm_be": vm_be, "vm_fe": vm_fe,
           "interp_sbt": interp_sbt}

PASSES = ("enable_fusion", "enable_dead_flag_elim", "enable_load_elim")


def boot(image, config, hot_threshold=50, **switches):
    """A VM run to its end, every superblock checked; returns it and
    the fields of each translation the oracle checked."""
    vm = CoDesignedVM(CONFIGS[config](), hot_threshold=hot_threshold)
    vm.load(image)
    for name, value in switches.items():
        setattr(vm.runtime.sbt, name, value)
    with checking_sbt() as checked:
        vm.run()
    assert len(checked) == vm.runtime.sbt.superblocks_translated
    return vm, checked


class TestEverySuperblock:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", sorted(IMAGES))
    def test_equals_the_reference(self, name, config):
        boot(IMAGES[name], config)

    @pytest.mark.parametrize("switch", PASSES)
    @pytest.mark.parametrize("name", ["checksum", "hot_loop-0", "matmul",
                                      "mixhash", "quicksort", "sieve"])
    def test_equals_the_reference_with_a_pass_off(self, name, switch):
        _vm, checked = boot(IMAGES[name], "vm_soft", **{switch: False})
        assert checked

    def test_the_images_form_superblocks_under_every_config(self):
        for config in CONFIGS:
            assert boot(IMAGES["hot_loop-0"], config)[1], config

    def test_generated_programs(self):
        formed = []

        @given(source=st.one_of(branchy_program(), random_loop_program()),
               config=st.sampled_from(sorted(CONFIGS)))
        @settings(max_examples=30, deadline=None)
        def check(source, config):
            _vm, checked = boot(assemble(source), config, hot_threshold=2)
            formed.append(len(checked))
        check()
        # a loop run once forms none; most programs run theirs more
        # (about four in five of them form superblocks)
        assert sum(1 for count in formed if count) > len(formed) / 3


def decoded_source(origins, memory):
    """``tests/source_oracle.py``'s walk as it was before: each
    instruction decoded for its length (its bytes, as hex, joined to the
    run they continue)."""
    source = []
    for addr in sorted({addr for addr, _count in origins
                        if addr is not None}):
        length = decode_at(memory, addr).length
        data = memory.read(addr, length).hex()
        if source and source[-1][0] + len(source[-1][1]) // 2 == addr:
            source[-1][1] += data
        else:
            source.append([addr, data])
    return source


class TestCapture:
    @pytest.mark.parametrize("config", ["vm_soft", "interp_sbt"])
    @pytest.mark.parametrize("name", sorted(IMAGES))
    def test_records_equal_the_decoded_path(self, name, config):
        vm, _checked = boot(IMAGES[name], config)
        directory, memory = vm.runtime.directory, vm.state.memory
        records = capture_translations(directory, memory)
        decoded = [decoded_source(translation.origins, memory)
                   for translation in translations(vm)]
        assert [[[addr, data.hex()] for addr, data in translation.source]
                for translation in translations(vm)] == decoded
        assert [record["source"] for record in records] == decoded
