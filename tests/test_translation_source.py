"""A translation keeps the x86 bytes it was made from.

Each producer of a ``Translation`` fills ``source`` from what it read:
BBT one run per block from its fetched windows, SBT the runs of the
sites its final ``origins`` still cover -- on a cold boot and when the
warm loader rebuilds a record.  Capture writes that field and checks it
against memory.  Pinned here:

* every translation's ``source`` equals the walk capture used to make
  over memory (``tests/source_oracle.py``): on the benchmark images,
  every program under the five Table 2 configurations, generated
  programs, a superblock whose passes drop an instruction, and a warm VM
  (whose capture reproduces its pulled records byte for byte);
* capture never pairs code with bytes it was not made from: a source
  rewritten after translation is not persisted.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoDesignedVM, interp_sbt, vm_soft
from repro.core.config import ALL_CONFIGS
from repro.isa.x86lite import assemble
from repro.persist import (
    TranslationRepository,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
)
from repro.workloads.programs import PROGRAMS
from tests.source_oracle import assert_sources_are_the_walk, translations
from tests.test_random_branchy import branchy_program
from tests.test_templates import gen
from tests.test_vm_end_to_end import random_loop_program

#: the five configurations of Table 2, by display name
CONFIGS = ALL_CONFIGS()

#: ``cmp eax, ebx``'s flags are overwritten by the next ``add`` before
#: anything reads them: in the superblock of ``top`` the dead-flag pass
#: drops its one micro-op, so ``origins`` no longer cover it
DROPPED_CMP = """
    mov ecx, 40
    mov eax, 0
    mov ebx, 3
    mov edx, 0
top:
    add eax, 1
    cmp eax, ebx
    add edx, eax
    dec ecx
    jnz top
    mov ebx, edx
    mov eax, 1
    int 0x80
    mov eax, 0
    int 0x80
"""

#: ``add ebx, 5`` is ``83 c3 05``: its immediate is the byte at IMM
ADD_LOOP = """
    mov ecx, 10
    mov ebx, 0
again:
    add ebx, {imm}
    dec ecx
    jnz again
    mov eax, 1
    int 0x80
    mov eax, 0
    int 0x80
"""
IMM = 0x40000C


def booted(image, config=vm_soft, hot_threshold=50):
    """A VM of ``image`` run to its end, and what it printed."""
    vm = CoDesignedVM(config(), hot_threshold=hot_threshold)
    vm.load(image)
    return vm, vm.run().output


class TestSourceIsTheWalk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", ["WIDE_COLD", "HOT_LOOP"])
    def test_the_benchmark_images(self, shape, seed):
        vm, _output = booted(assemble(gen.generate_source(
            getattr(gen, shape), seed)))
        assert assert_sources_are_the_walk(vm)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_program_under_every_configuration(self, name, config):
        vm = CoDesignedVM(CONFIGS[config], hot_threshold=20)
        vm.load(assemble(PROGRAMS[name]))
        vm.run()
        if vm.runtime is None:          # the reference interprets only
            assert not vm.config.is_vm
            return
        assert assert_sources_are_the_walk(vm)

    def test_generated_programs(self):
        @given(source=st.one_of(branchy_program(), random_loop_program()),
               config=st.sampled_from([vm_soft, interp_sbt]))
        @settings(max_examples=25, deadline=None)
        def check(source, config):
            vm, _output = booted(assemble(source), config, hot_threshold=2)
            assert_sources_are_the_walk(vm)
        check()

    def test_a_superblock_that_drops_an_instruction(self):
        image = assemble(DROPPED_CMP)
        vm, output = booted(image, hot_threshold=5)
        assert output == [sum(range(1, 41))]
        top = image.labels["top"]
        cmp_addr = top + 3                      # after ``83 c0 01``
        (superblock,) = [t for t in translations(vm)
                         if t.kind == "sbt" and t.entry == top]
        covered = {addr for addr, _count in superblock.origins}
        assert cmp_addr not in covered
        assert len(superblock.source) == 2      # the gap is the cmp's
        assert superblock.source[0] == [top, bytes.fromhex("83c001")]
        assert superblock.source[1][0] == cmp_addr + 2
        assert assert_sources_are_the_walk(vm)

    @pytest.mark.parametrize("name", ["quicksort", "sieve", "mixhash"])
    def test_a_warm_vm_captures_what_it_pulled(self, name, tmp_path):
        image = assemble(PROGRAMS[name])
        cold, _output = booted(image)
        repository = TranslationRepository(tmp_path)
        cold.save_translations(repository)
        pulled, _missing = repository.fetch(config_fingerprint(cold.config),
                                            image_fingerprint(image))
        warm = CoDesignedVM(vm_soft(), hot_threshold=50)
        warm.load(image)
        report = warm.warm_start(repository)
        assert report.loaded == len(pulled) and not report.dropped
        assert assert_sources_are_the_walk(warm) == len(pulled)
        texts = sorted(record.text for record in pulled)
        captured = capture_translations(warm.runtime.directory,
                                        warm.state.memory)
        assert sorted(record.text for record in captured) == texts
        warm.run()
        assert warm.stats()["blocks_translated"] == 0
        captured = capture_translations(warm.runtime.directory,
                                        warm.state.memory)
        assert sorted(record.text for record in captured) == texts


class TestCaptureChecksTheSource:
    """Rewrite a translated immediate in guest memory, then capture:
    the two translations made from the old byte (the entry block runs
    into the loop) are not persisted, so a store saved under the
    rewritten image's fingerprint cannot hand its VM code for ``5``."""

    def test_a_rewritten_source_is_not_persisted(self, tmp_path):
        five, seven = (assemble(ADD_LOOP.format(imm=imm)) for imm in (5, 7))
        cold, output = booted(five, hot_threshold=8000)
        assert output == [50]
        assert len(translations(cold)) == 4
        memory = cold.state.memory
        assert memory.read(IMM, 1) == b"\x05"
        memory.write(IMM, b"\x07")

        records = capture_translations(cold.runtime.directory, memory)
        covering = [t for t in translations(cold)
                    if any(addr <= IMM < addr + len(data)
                           for addr, data in t.source)]
        assert len(covering) == 2
        assert len(records) == 2
        assert {record["entry"] for record in records}.isdisjoint(
            t.entry for t in covering)

        repository = TranslationRepository(tmp_path)
        repository.save(records, config_fingerprint(cold.config),
                        image_fingerprint(seven))
        warm = CoDesignedVM(vm_soft(), hot_threshold=8000)
        warm.load(seven)
        report = warm.warm_start(repository)
        assert (report.loaded, report.stale_source) == (2, 0)
        reference = CoDesignedVM(CONFIGS["Ref: superscalar"])
        reference.load(seven)
        assert warm.run().output == reference.run().output == [70]

    def test_a_loaded_record_keeps_its_source(self, tmp_path):
        """A rebuilt translation keeps the source it was built from:
        capture of a warm VM whose source was rewritten skips the loaded
        copy too."""
        five = assemble(ADD_LOOP.format(imm=5))
        cold, _output = booted(five, hot_threshold=8000)
        repository = TranslationRepository(tmp_path)
        cold.save_translations(repository)
        warm = CoDesignedVM(vm_soft(), hot_threshold=8000)
        warm.load(five)
        assert warm.warm_start(repository).loaded == 4
        warm.state.memory.write(IMM, b"\x07")
        assert len(capture_translations(warm.runtime.directory,
                                        warm.state.memory)) == 2
