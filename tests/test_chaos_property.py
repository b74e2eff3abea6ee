"""Property test: random fault cocktails never change architected results.

Hypothesis samples (workload, fault subset, seed) triples and asserts
the chaos invariant end-to-end: the faulted run completes — warm-started
from a mangled repository and/or cold with runtime faults armed — with
architected state identical to the fault-free baseline.  The
deterministic per-class matrix lives in ``tests/test_faults.py`` and
the ``chaos`` drill; this test explores the *combinations* those sweeps
don't enumerate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    all_fault_names,
    modes_for,
    prepare_baseline,
    run_faulted,
)
from repro.workloads.programs import PROGRAMS

#: small, fast seed workloads with distinct control-flow shapes
WORKLOADS = ("fibonacci", "checksum", "bubble_sort")

_BASELINES = {}


def _baseline(name: str, tmp_path_factory):
    if name not in _BASELINES:
        _BASELINES[name] = prepare_baseline(
            name, PROGRAMS[name],
            tmp_path_factory.mktemp(f"chaos-{name}"), hot_threshold=20)
    return _BASELINES[name]


@settings(max_examples=20, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    faults=st.lists(st.sampled_from(all_fault_names()),
                    min_size=1, max_size=4, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_fault_cocktails_are_survivable(workload, faults, seed,
                                               tmp_path_factory):
    baseline = _baseline(workload, tmp_path_factory)
    for mode in modes_for(faults):
        # local transports only, as the chaos drill's "local" rows
        outcome = run_faulted(baseline, faults, seed,
                              mode="cold" if mode == "cold" else "warm")
        assert outcome.ok, outcome.format()
        # graceful degradation is observable, never silent: whatever
        # fired is accounted for in the recovery counters
        stats = outcome.stats
        if outcome.injected.get("bbt-fault") or \
                outcome.injected.get("sbt-fault"):
            assert stats["translation_faults"] > 0
        if outcome.injected.get("hotspot-misfire"):
            assert stats["hotspot_misfires"] > 0
        # (cache-corruption is not asserted on: an injection attempt
        # counts even when no translation was installed to corrupt)
