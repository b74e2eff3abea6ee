"""Deterministic fault injection for the translation stack.

The VM's contract is forward progress: translation is an optimization
over a correct interpreter, so *no* failure in the translation stack —
rotten persisted state, a crashing translator, a flipped bit in a code
cache — may change architected results or kill the run.  This package
makes that contract testable:

* :mod:`repro.faults.plane` — the fault-point hooks compiled into the
  production paths (no-ops unless an injector is armed);
* :mod:`repro.faults.classes` — the table of faults, from torn
  ``meta.json`` writes to hotspot-detector misfires;
* :mod:`repro.faults.injector` — the seeded, bounded injector with a
  full event log (same seed => same failure sequence);
* :mod:`repro.faults.harness` — chaos runs: a faulted, warm-started run
  must produce architected state identical to the fault-free run.

See ``docs/robustness.md`` for the fault table and the recovery
guarantee each fault is matched by; the ``chaos`` drill of
``tools/drills.py`` is the gate.
"""

from repro.faults.classes import (
    FAULTS,
    SURFACES,
    Fault,
    InjectedFault,
    InjectedTranslatorFault,
    all_fault_names,
    make_fault,
)
from repro.faults.injector import FaultInjector
from repro.faults.plane import fault_point, injecting

#: harness symbols are loaded lazily (PEP 562): the harness drives whole
#: CoDesignedVM runs, while the low-level fault *plane* is imported by
#: the translators themselves — an eager import here would be circular.
_HARNESS_SYMBOLS = ("ArchOutcome", "Baseline", "ChaosOutcome",
                    "manifest_pairs", "modes_for", "prepare_baseline",
                    "run_faulted", "run_matrix")


def __getattr__(name):
    if name in _HARNESS_SYMBOLS:
        from repro.faults import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FAULTS",
    "SURFACES",
    "ArchOutcome",
    "Baseline",
    "ChaosOutcome",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "InjectedTranslatorFault",
    "all_fault_names",
    "fault_point",
    "injecting",
    "make_fault",
    "manifest_pairs",
    "modes_for",
    "prepare_baseline",
    "run_faulted",
    "run_matrix",
]
