#!/usr/bin/env python
"""Warm start: boot the VM from the persistent translation repository.

Runs one seed workload twice under the software VM:

* **cold** — every basic block is BBT-translated on first touch and hot
  code is re-optimized by the SBT, exactly as in a first-ever launch;
  the resulting code caches are then snapshotted to an on-disk
  repository;
* **warm** — a fresh VM (new process, cold caches) rebuilds the
  snapshot at boot: each record is re-fingerprinted against the program
  bytes; a basic block is derived again by the translator, a
  superblock re-formed along its recorded path and built by the SBT,
  each placed at its new code-cache address.  The run itself then
  translates nothing.

Then the timing layer shows what that buys at full application scale:
the PERSISTENT_WARM startup curve against the paper's memory-startup
scenario.

Run:  python examples/warm_start.py [workload-name]
"""

import sys
import tempfile

from repro import (
    CoDesignedVM,
    assemble,
    generate_workload,
    simulate_startup,
    vm_soft,
    winstone_app,
)
from repro.persist import TranslationRepository
from repro.timing.scenarios import Scenario
from repro.workloads.programs import PROGRAMS


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "quicksort"
    source = PROGRAMS[name]
    image = assemble(source)

    with tempfile.TemporaryDirectory(prefix="repro-warm-") as root:
        repo = TranslationRepository(root)

        print(f"== cold run: {name} under VM.soft")
        cold_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        cold_vm.load(image)
        cold = cold_vm.run()
        print(f"   BBT blocks translated:  {cold.blocks_translated}")
        print(f"   SBT superblocks:        {cold.superblocks_translated}")
        written = cold_vm.save_translations(repo)
        print(f"   records persisted:      {written}")
        print()
        print(repo.stats().format())
        print()

        print(f"== warm run: fresh VM, translations from the repository")
        warm_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        warm_vm.load(image)
        load = warm_vm.warm_start(repo)
        print("   " + load.format().replace("\n", "\n   "))
        warm = warm_vm.run()
        print(f"   BBT blocks translated:  {warm.blocks_translated}"
              f"   (cold run: {cold.blocks_translated})")
        print(f"   SBT superblocks:        "
              f"{warm.superblocks_translated}")
        assert warm.output == cold.output
        assert warm.blocks_translated == 0
        print("   outputs identical, zero warm translations")
        print()

    print("== timing model at application scale (Word, 500M instrs)")
    workload = generate_workload(winstone_app("Word"),
                                 dyn_instrs=500_000_000, seed=0)
    for scenario in (Scenario.MEMORY_STARTUP, Scenario.PERSISTENT_WARM,
                     Scenario.CODE_CACHE_WARM):
        result = simulate_startup(vm_soft(), workload, scenario)
        extra = ""
        if scenario is Scenario.PERSISTENT_WARM:
            extra = (f"  (loaded {result.persist_loaded_instrs} static "
                     f"instrs at boot)")
        print(f"   {scenario.value:16s} "
              f"{result.total_cycles / 1e6:9.1f}M cycles{extra}")


if __name__ == "__main__":
    main()
