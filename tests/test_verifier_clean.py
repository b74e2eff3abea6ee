"""Zero-violation regression: every seed program verifies clean.

Runs each workload with the verifier armed three ways — the raising
sanitizer (:func:`sanitizer.raising`), an explicit collecting sanitizer
sweep, and a post-run :func:`verify_directory` pass over the
steady-state caches — and pins that the emitters produce no invariant
violations anywhere.
"""

import pytest

from repro.core import CoDesignedVM, interp_sbt, vm_be, vm_soft
from repro.isa.x86lite import assemble
from repro.verify import sanitizer, verify_directory
from repro.workloads.programs import EXPECTED_OUTPUT, PROGRAMS


def run_verified(factory, name, hot_threshold=12):
    vm = CoDesignedVM(factory(), hot_threshold=hot_threshold)
    vm.load(assemble(PROGRAMS[name]))
    with sanitizer.raising():
        report = vm.run()
    return vm, report


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_workload_installs_verified_translations(program_name):
    # the sanitizer raises TranslationVerifyError on the first bad
    # install, so simply finishing means every translation was clean
    _, report = run_verified(vm_soft, program_name)
    assert report.exit_code == 0
    if program_name in EXPECTED_OUTPUT:
        assert report.output == EXPECTED_OUTPUT[program_name]


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_steady_state_caches_verify_clean(program_name):
    vm, _report = run_verified(vm_soft, program_name, hot_threshold=6)
    swept = verify_directory(vm.runtime.directory)
    assert swept.ok, swept.format()
    assert swept.translations_checked > 0
    assert swept.uops_checked > 0


def test_sbt_superblocks_verify_clean():
    vm, report = run_verified(vm_soft, "sieve", hot_threshold=6)
    assert report.superblocks_translated >= 1
    swept = verify_directory(vm.runtime.directory)
    assert swept.ok, swept.format()
    assert any(t.fused_pairs for t in
               vm.runtime.directory.sbt_cache.translations)


@pytest.mark.parametrize("factory", [vm_be, interp_sbt],
                         ids=lambda f: f.__name__)
def test_other_translation_paths_verify_clean(factory):
    # vm_be runs the XLTx86 hardware-assist crack path; interp_sbt skips
    # BBT entirely and feeds the SBT from interpreter profiles
    vm, report = run_verified(factory, "fibonacci", hot_threshold=6)
    assert report.exit_code == 0
    swept = verify_directory(vm.runtime.directory)
    assert swept.ok, swept.format()


def test_collecting_sanitizer_observes_installs():
    config = vm_soft()
    vm = CoDesignedVM(config, hot_threshold=6)
    vm.load(assemble(PROGRAMS["fibonacci"]))
    with sanitizer.collecting() as collected:
        vm.run()
    assert collected.ok, collected.format()
    assert collected.translations_checked > 0
    assert sanitizer.mode() == "raise"  # the autouse fixture's mode
