"""The metrics registry and the no-counter-drift contract.

VM counters are plain attributes; ``VMRuntime.stats()`` is the one list
that reports them and ``ExecutionReport`` is filled from it by field
name.  The drift test runs a mixed BBT/SBT/fault workload and asserts
every counter field of the report is a ``stats()`` key with an equal
value, so the two surfaces cannot silently diverge.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import vm_soft
from repro.core.stats import ExecutionReport
from repro.core.vm import CoDesignedVM
from repro.faults import FaultInjector, injecting
from repro.isa.x86lite import assemble
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.workloads.programs import PROGRAMS


class TestSeriesKinds:
    def test_series_key_plain_and_labeled(self):
        assert series_key("hits", {}) == "hits"
        assert series_key("hits", {"b": "2", "a": "1"}) == \
            "hits{a=1,b=2}"

    def test_counter(self):
        counter = Counter("hits", {})
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_gauge(self):
        gauge = Gauge("depth", {})
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5

    def test_histogram_buckets_are_powers_of_two(self):
        histogram = Histogram("sizes", {})
        for value in (1, 3, 5, 9, 9):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 1 and snap["max"] == 9
        assert snap["mean"] == pytest.approx(27 / 5)
        assert snap["buckets"] == {1: 1, 4: 1, 8: 1, 16: 2}


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", cache="bbt")
        second = registry.counter("hits", cache="bbt")
        assert first is second
        assert len(registry) == 1

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(TypeError):
            registry.gauge("hits")

    def test_value_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits", cache="bbt").inc(3)
        registry.gauge("depth").set(2)
        assert registry.value("hits", cache="bbt") == 3
        assert registry.value("absent") is None
        assert registry.snapshot() == {"hits{cache=bbt}": 3, "depth": 2}

    def test_diff_reports_numeric_deltas(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("sizes")
        counter.inc(2)
        histogram.observe(10)
        before = registry.snapshot()
        counter.inc(3)
        histogram.observe(20)
        registry.counter("fresh").inc()
        deltas = registry.diff(before)
        assert deltas == {"hits": 3, "sizes": 1, "fresh": 1}


@pytest.fixture(scope="module")
def mixed_run():
    """A run that exercises BBT, SBT and the fault/recovery plane."""
    vm = CoDesignedVM(vm_soft(), hot_threshold=10)
    vm.load(assemble(PROGRAMS["quicksort"]))
    injector = FaultInjector(5, ["bbt-fault"], rate=0.3,
                             max_injections=3)
    with injecting(injector):
        report = vm.run()
    return vm, report, injector


class TestNoCounterDrift:
    def test_run_was_actually_mixed(self, mixed_run):
        _vm, report, injector = mixed_run
        assert report.blocks_translated > 0
        assert report.superblocks_translated > 0
        assert report.translation_faults > 0
        assert sum(injector.injected.values()) > 0

    def test_every_report_field_matches_its_series(self, mixed_run):
        vm, report, _injector = mixed_run
        stats = vm.runtime.stats()
        for field in fields(ExecutionReport):
            if field.name not in ("config_name", "exit_code", "output"):
                assert getattr(report, field.name) == stats[field.name], \
                    field.name

    def test_phase_cycles_conserve_total(self, mixed_run):
        _vm, report, _injector = mixed_run
        assert report.total_cycles > 0
        assert sum(report.phase_cycles.values()) == \
            pytest.approx(report.total_cycles)
