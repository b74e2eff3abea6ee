"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.core import CoDesignedVM
from repro.interp import Interpreter
from repro.isa.x86lite import ArchException, X86State, assemble
from repro.memory import AddressSpace, load_image
from repro.memory.address_space import PAGE_SHIFT
from repro.memory.loader import DEFAULT_STACK_TOP
from repro.translator import TranslationDirectory
from repro.translator.code_cache import BBT_CACHE_BASE
from repro.verify import sanitizer
from repro.vmm.runtime import VMRuntime


@pytest.fixture(autouse=True)
def translation_sanitizer():
    """Arm the translation verifier for every test, sanitizer-style.

    Every ``TranslationDirectory.install`` anywhere in the suite runs the
    full rule-pack (:mod:`repro.verify`) and raises on the first invariant
    violation, so each end-to-end test doubles as a translator-correctness
    test.  Set ``REPRO_VERIFY=0`` to switch it off (e.g. when bisecting a
    functional failure separately from a verifier finding).
    """
    if os.environ.get("REPRO_VERIFY", "1") == "0":
        yield
        return
    with sanitizer.raising():
        yield


def make_state(image=None) -> X86State:
    """Fresh architected state, optionally with an image loaded."""
    state = X86State(memory=AddressSpace())
    state.regs[4] = DEFAULT_STACK_TOP  # ESP
    if image is not None:
        state.eip = load_image(image, state.memory)
    return state


def run_on_tiny_caches(factory, image, max_uops: int = 200_000_000):
    """Run ``image`` under ``factory()`` at hot threshold 1 (every block
    executed is promoted) on code caches each as large as the largest
    translation of its kind the same run makes on the default caches:
    each translation fits alone and not all together, so
    ``VMRuntime._flush`` fires.  Returns the finished VM."""
    sizing = CoDesignedVM(factory(), hot_threshold=1)
    sizing.load(image)
    sizing.run(max_uops=max_uops)
    directory = sizing.runtime.directory
    bbt, sbt = (max((t.native_len for t in cache.translations), default=0)
                for cache in (directory.bbt_cache, directory.sbt_cache))
    vm = CoDesignedVM(factory(), hot_threshold=1)
    vm.load(image)
    directory = TranslationDirectory(
        vm.state.memory, bbt_base=BBT_CACHE_BASE, bbt_capacity=bbt,
        sbt_base=BBT_CACHE_BASE + bbt, sbt_capacity=sbt)
    vm.runtime = VMRuntime(vm.state, vm.config, directory=directory)
    vm.run(max_uops=max_uops)
    return vm


def outcome(vm, max_uops: int = 200_000_000):
    """Run a loaded ``vm``: its registers, flags, guest pages (those
    below the code caches, with their bytes), output, and its exit code
    or ``ArchException``."""
    try:
        vm.run(max_uops=max_uops)
        ending = ("exit", vm.state.exit_code)
    except ArchException as error:
        ending = (error.kind, error.addr)
    pages = vm.state.memory._pages
    return (list(vm.state.regs), vm.state.flags_tuple(),
            {index: bytes(pages[index]) for index in sorted(pages)
             if index < BBT_CACHE_BASE >> PAGE_SHIFT},
            vm.state.output, ending)


def warm_from(cold, image, max_uops: int = 200_000_000):
    """The ``(outcome, LoadReport)`` of a VM of ``cold``'s configuration
    warm-booted from the store ``cold``, a finished run of ``image``,
    saves."""
    with tempfile.TemporaryDirectory() as store:
        cold.save_translations(store)
        vm = CoDesignedVM(cold.config)
        vm.load(image)
        report = vm.warm_start(store)
    return outcome(vm, max_uops), report


def run_source(source: str, max_instructions: int = 1_000_000) -> X86State:
    """Assemble, load and interpret a program; returns final state."""
    image = assemble(source)
    state = make_state(image)
    Interpreter(state).run(max_instructions)
    return state


@pytest.fixture
def fresh_state() -> X86State:
    return make_state()
