"""Observability: ledger conservation, trace export, flight recorder.

Pins the contracts of :mod:`repro.obs`:

* every attributed cycle lands in exactly one phase and the phase sums
  equal the clock total (conservation by construction);
* a traced run is deterministic — same workload, same seed, byte-
  identical exported stream;
* exports validate against the checked-in ``trace_schema.json``;
* a :class:`~repro.vmm.runtime.VMRuntimeError` under tracing carries a
  flight-recorder dump naming the faulting pc/mode, and the chaos
  harness attaches one when a run escapes.
"""

from __future__ import annotations

import pytest

from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults.harness import prepare_baseline, run_faulted
from repro.isa.x86lite import assemble
from repro.obs.export import (
    export_trace,
    load_trace_schema,
    serialize_trace,
    validate_trace,
)
from repro.obs.ledger import EQ1_PHASES, CycleLedger
from repro.obs.tracer import EVENT_TYPES, EventTracer
from repro.timing import simulate_startup
from repro.vmm.runtime import VMRuntimeError
from repro.workloads import generate_workload, winstone_app
from repro.workloads.programs import PROGRAMS


# -- ledger -------------------------------------------------------------------

class TestCycleLedger:
    def test_conservation_by_construction(self):
        ledger = CycleLedger()
        ledger.charge("bbt_translation", 830.0, block=0x400000)
        ledger.charge("bbt_execution", 120.0)
        ledger.charge("interpretation", 45.0)
        assert ledger.total == pytest.approx(995.0)
        assert sum(ledger.totals().values()) == \
            pytest.approx(ledger.total)
        assert ledger.conserved()

    def test_non_positive_charges_ignored(self):
        ledger = CycleLedger()
        ledger.charge("interpretation", 0.0)
        ledger.charge("interpretation", -5.0)
        assert ledger.total == 0.0
        assert ledger.totals() == {}

    def test_timeline_splits_across_interval_boundaries(self):
        ledger = CycleLedger(first_interval=100.0,
                             intervals_per_decade=1)
        # one 250-cycle charge spans the [0,100) and [100,1000) buckets
        ledger.charge("bbt_translation", 250.0)
        timeline = ledger.timeline()
        assert [entry["start"] for entry in timeline] == [0.0, 100.0]
        assert timeline[0]["phases"]["bbt_translation"] == 100.0
        assert timeline[1]["phases"]["bbt_translation"] == 150.0
        assert sum(sum(entry["phases"].values())
                   for entry in timeline) == pytest.approx(ledger.total)

    def test_top_blocks_ranked_by_cycles_then_address(self):
        ledger = CycleLedger()
        ledger.charge("bbt_translation", 50.0, block=0x30)
        ledger.charge("bbt_translation", 90.0, block=0x20)
        ledger.charge("bbt_translation", 90.0, block=0x10)
        assert ledger.top_blocks("bbt_translation", limit=2) == \
            [(0x10, 90.0), (0x20, 90.0)]

    def test_eq1_breakdown_folds_categories(self):
        ledger = CycleLedger()
        ledger.charge("bbt_translation", 10.0)
        ledger.charge("bbt_emulation", 4.0)   # timing-sim name
        ledger.charge("bbt_execution", 6.0)   # runtime name
        folded = ledger.eq1_breakdown()
        assert folded["M_bbt*T_bbt"] == 10.0
        assert folded["N_bbt*E_bbt"] == 10.0  # both map to one term
        assert sum(folded.values()) == pytest.approx(ledger.total)


# -- tracer -------------------------------------------------------------------

class TestEventTracer:
    def test_unknown_event_names_rejected(self):
        tracer = EventTracer()
        with pytest.raises(ValueError):
            tracer.instant("no.such.event")
        with pytest.raises(ValueError):
            tracer.complete("block.first_exec", 0.0)  # "i", not "X"

    def test_flight_ring_is_bounded(self):
        tracer = EventTracer(keep_events=False, flight_capacity=4)
        for _ in range(10):
            tracer.instant("block.first_exec")
        assert len(tracer.flight) == 4
        assert len(tracer.events) == 0
        assert tracer.dropped == 10

    def test_flight_dump_carries_context(self):
        clock = iter(float(i) for i in range(100))
        tracer = EventTracer(clock=lambda: next(clock))
        tracer.instant("run.begin")
        dump = tracer.flight_dump("TestFault", pc="0x400000",
                                  mode="bbt")
        assert dump["reason"] == "TestFault"
        assert dump["context"] == {"mode": "bbt", "pc": "0x400000"}
        assert dump["events"][0]["name"] == "run.begin"

    def test_every_event_name_has_a_phase_type(self):
        assert set(EVENT_TYPES.values()) <= {"X", "i"}


# -- traced end-to-end runs ---------------------------------------------------

def _traced_vm(program="checksum", hot_threshold=10):
    vm = CoDesignedVM(vm_soft().with_(trace=True),
                      hot_threshold=hot_threshold)
    vm.load(assemble(PROGRAMS[program]))
    vm.run()
    return vm


@pytest.fixture(scope="module")
def traced_doc():
    return _traced_vm().export_trace()


class TestTraceExport:
    def test_schema_validation_passes(self, traced_doc):
        assert validate_trace(traced_doc) == []
        # every seed workload exports a schema-valid, conserved trace
        for name in sorted(PROGRAMS):
            doc = _traced_vm(name).export_trace()
            assert validate_trace(doc) == [], name
            assert doc["traceEvents"] and doc["conserved"] is True, name
            assert sum(doc["phase_cycles"].values()) == \
                pytest.approx(doc["total_cycles"]), name

    def test_jsonschema_backend_is_available(self):
        # the fallback validator covers a subset; make sure the real
        # schema engine is what actually gates exports in this tree
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft7Validator.check_schema(load_trace_schema())

    def test_missing_dur_fails_validation(self, traced_doc):
        import copy
        doc = copy.deepcopy(traced_doc)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices, "expected at least one translate slice"
        del slices[0]["dur"]
        assert validate_trace(doc) != []

    def test_leaked_cycles_fail_validation(self, traced_doc):
        import copy
        doc = copy.deepcopy(traced_doc)
        doc["phase_cycles"]["bbt_translation"] += 123.0
        problems = validate_trace(doc)
        assert any("leaked" in problem for problem in problems)

    def test_attribution_embedded_and_conserved(self, traced_doc):
        assert traced_doc["conserved"] is True
        assert sum(traced_doc["phase_cycles"].values()) == \
            pytest.approx(traced_doc["total_cycles"])
        assert set(traced_doc["eq1"]) <= \
            set(EQ1_PHASES.values()) | {"other"}

    def test_determinism_byte_identical(self):
        for name in ("checksum", "quicksort"):
            first = serialize_trace(_traced_vm(name).export_trace())
            second = serialize_trace(_traced_vm(name).export_trace())
            assert first == second, name

    def test_export_requires_tracing(self):
        vm = CoDesignedVM(vm_soft())
        vm.load(assemble(PROGRAMS["checksum"]))
        vm.run()
        assert vm.tracer is None
        with pytest.raises(RuntimeError, match="trace=True"):
            vm.export_trace()


# -- flight recorder ----------------------------------------------------------

class TestFlightRecorder:
    def test_vm_runtime_error_carries_dump(self):
        vm = CoDesignedVM(vm_soft().with_(trace=True), hot_threshold=10)
        vm.load(assemble(PROGRAMS["bubble_sort"]))
        with pytest.raises(VMRuntimeError) as excinfo:
            vm.run(max_uops=50)          # budget far too small
        recording = excinfo.value.flight_recording
        assert recording is not None
        assert recording["reason"] == type(excinfo.value).__name__
        assert recording["context"]["pc"].startswith("0x")
        assert recording["context"]["mode"]
        assert "dispatches" in recording["context"]

    def test_untraced_error_has_no_dump(self):
        vm = CoDesignedVM(vm_soft(), hot_threshold=10)
        vm.load(assemble(PROGRAMS["bubble_sort"]))
        with pytest.raises(VMRuntimeError) as excinfo:
            vm.run(max_uops=50)
        assert excinfo.value.flight_recording is None

    def test_chaos_harness_attaches_dump_on_escape(self, tmp_path,
                                                   monkeypatch):
        baseline = prepare_baseline("checksum", PROGRAMS["checksum"],
                                    str(tmp_path), hot_threshold=10)
        original_run = CoDesignedVM.run

        def exploding_run(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(CoDesignedVM, "run", exploding_run)
        outcome = run_faulted(baseline, ["bbt-fault"], seed=1,
                              workdir=str(tmp_path), mode="cold")
        monkeypatch.setattr(CoDesignedVM, "run", original_run)
        assert not outcome.ok
        assert outcome.flight_recording is not None
        assert outcome.flight_recording["reason"] == \
            "chaos-exception:RuntimeError"

    def test_surviving_chaos_run_has_no_dump(self, tmp_path):
        baseline = prepare_baseline("checksum", PROGRAMS["checksum"],
                                    str(tmp_path), hot_threshold=10)
        outcome = run_faulted(baseline, ["bbt-fault"], seed=2,
                              workdir=str(tmp_path), mode="cold")
        assert outcome.ok
        assert outcome.flight_recording is None


# -- timing-simulator ledger --------------------------------------------------

class TestStartupSimLedger:
    def test_ledger_matches_sampler_clock(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=5_000_000, seed=3)
        result = simulate_startup(vm_soft(), workload)
        assert result.ledger is not None
        assert result.conserved
        assert result.ledger.total == pytest.approx(result.total_cycles)
        # the ledger mirrors the legacy breakdown dict exactly (for the
        # categories that charged nonzero cycles)
        totals = result.ledger.totals()
        for category, cycles in result.breakdown.items():
            if cycles > 0:
                assert totals[category] == pytest.approx(cycles)
