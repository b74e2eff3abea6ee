"""repro — reproduction of "Reducing Startup Time in Co-Designed Virtual
Machines" (Hu & Smith, ISCA 2006).

Two layers:

* a **functional co-designed VM** that really runs programs — an x86lite
  (IA-32-subset) front end over a fusible micro-op ISA, with staged
  BBT/SBT dynamic binary translation, code caches with chaining, macro-op
  fusion, and the paper's hardware assists (XLTx86, a
  branch-behavior-buffer hotspot detector);
* a **timing layer** that reproduces the paper's startup study (Figs.
  2/3/8/9/10/11, Eqs. 1/2, Tables 1/2) at full 500M-instruction scale via
  event-driven simulation over synthetic Winstone2004 workload models.

Quick start::

    from repro import CoDesignedVM, assemble, vm_soft

    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble('''
    start:
        mov ecx, 100
    loop:
        add eax, ecx
        dec ecx
        jnz loop
        mov eax, 0
        mov ebx, 0
        int 0x80
    '''))
    report = vm.run()
    print(report.summary())
"""

from repro.core import (
    ALL_CONFIGS,
    CoDesignedVM,
    ExecutionReport,
    MachineConfig,
    VM_CONFIGS,
    interp_sbt,
    ref_superscalar,
    vm_be,
    vm_fe,
    vm_soft,
)
from repro.core.vm import run_program
from repro.isa.x86lite import assemble, assemble_to_bytes
from repro.timing import Scenario, simulate_startup
from repro.workloads import generate_workload, winstone_app, \
    winstone_suite

__version__ = "1.0.0"

__all__ = [
    "ALL_CONFIGS", "CoDesignedVM", "ExecutionReport", "MachineConfig",
    "Scenario", "VM_CONFIGS", "assemble", "assemble_to_bytes",
    "generate_workload", "interp_sbt", "ref_superscalar", "run_program",
    "simulate_startup", "vm_be", "vm_fe", "vm_soft", "winstone_app",
    "winstone_suite",
]
