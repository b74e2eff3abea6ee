"""Analysis-layer tests: Eq. 1/2 models, curves, breakeven, reporting."""

import math

import pytest

from repro.analysis import (
    TranslationOverheadModel,
    breakeven_for_app,
    format_table,
    half_gain_point,
    hot_threshold,
    normalized_curve,
    sbt_breakeven_executions,
    suite_average_curve,
    translation_overhead,
)
from repro.analysis.breakeven import format_breakeven
from repro.analysis.frequency_profile import frequency_profile
from repro.analysis.startup_curves import log_grid
from repro.core import VM_CONFIGS, ref_superscalar, vm_fe, vm_soft
from repro.timing import simulate_startup
from repro.workloads import generate_workload, winstone_app


class TestEquationTwo:
    def test_paper_threshold_is_8000(self):
        # N = 1200 / 0.15 = 8000 (Section 3.2)
        assert sbt_breakeven_executions(1200, 1.15) == pytest.approx(8000)
        assert hot_threshold() == 8000

    def test_faster_optimizer_lowers_threshold(self):
        assert sbt_breakeven_executions(600, 1.15) < \
            sbt_breakeven_executions(1200, 1.15)

    def test_bigger_speedup_lowers_threshold(self):
        assert sbt_breakeven_executions(1200, 1.20) < \
            sbt_breakeven_executions(1200, 1.15)

    def test_interpreter_style_threshold(self):
        # with interpretation ~45x slower, p ~ 45 and N ~ 25 (Section 3)
        value = sbt_breakeven_executions(1152, 45.0)
        assert 20 <= value <= 30

    def test_no_speedup_rejected(self):
        with pytest.raises(ValueError):
            sbt_breakeven_executions(1200, 1.0)


class TestEquationOne:
    def test_paper_overheads(self):
        model = translation_overhead()
        assert model.bbt_overhead == pytest.approx(15.75e6)  # Section 3.2
        assert model.sbt_overhead == pytest.approx(5.022e6)

    def test_bbt_dominates(self):
        assert translation_overhead().bbt_fraction > 0.5

    def test_custom_parameters(self):
        model = TranslationOverheadModel(m_bbt=1000, m_sbt=10,
                                         delta_bbt=10, delta_sbt=100)
        assert model.total == 10_000 + 1_000


class TestCurves:
    @pytest.fixture(scope="class")
    def sim_pair(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=20_000_000, seed=0)
        ref = simulate_startup(ref_superscalar(), workload)
        soft = simulate_startup(vm_soft(), workload)
        fe = simulate_startup(vm_fe(), workload)
        return workload, ref, soft, fe

    def test_normalized_curve_approaches_one(self, sim_pair):
        workload, ref, _soft, _fe = sim_pair
        grid = log_grid(1e3, ref.total_cycles, per_decade=2)
        curve = normalized_curve(ref, workload.app.ipc_ref, grid)
        # cold-start losses still weigh on a 20M-instruction trace
        assert curve[-1] == pytest.approx(1.0, abs=0.2)
        assert curve[0] < curve[-1]  # warms up over time

    def test_vm_curve_below_reference_early(self, sim_pair):
        workload, ref, soft, _fe = sim_pair
        grid = log_grid(1e5, 1e6, per_decade=2)
        ref_curve = normalized_curve(ref, workload.app.ipc_ref, grid)
        soft_curve = normalized_curve(soft, workload.app.ipc_ref, grid)
        assert all(s <= r for s, r in zip(soft_curve, ref_curve))

    def test_suite_average(self, sim_pair):
        workload, ref, _soft, _fe = sim_pair
        grid = log_grid(1e4, 1e6, per_decade=1)
        averaged = suite_average_curve(
            [ref, ref], {"Word": workload.app.ipc_ref}, grid)
        single = normalized_curve(ref, workload.app.ipc_ref, grid)
        assert averaged == pytest.approx(single)

    def test_half_gain_point_finite_for_fe(self, sim_pair):
        _workload, ref, _soft, fe = sim_pair
        point = half_gain_point(fe, ref, steady_gain=0.08)
        assert point < ref.total_cycles

    def test_half_gain_unreachable_reports_inf(self, sim_pair):
        _workload, ref, _soft, _fe = sim_pair
        assert math.isinf(half_gain_point(ref, ref, steady_gain=0.08))


class TestBreakevenHelpers:
    def test_breakeven_for_app_produces_all_configs(self):
        row = breakeven_for_app(winstone_app("Winzip"),
                                list(VM_CONFIGS().values()),
                                ref_superscalar(),
                                dyn_instrs=20_000_000)
        assert set(row.cycles_by_config) == {"VM.soft", "VM.be", "VM.fe"}

    def test_capped_values(self):
        from repro.analysis.breakeven import BreakevenRow
        row = BreakevenRow("X", {"a": 402e6, "b": 13e6})
        capped = row.capped(200e6)
        assert capped["a"] == 200e6 and capped["b"] == 13e6

    def test_format_breakeven(self):
        assert format_breakeven(13.3e6) == "13.3M"
        assert format_breakeven(float("inf")) == "never"
        assert format_breakeven(2.5e9) == "2.50G"


class TestFrequencyProfileHelpers:
    def test_profile_totals(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=5_000_000, seed=0)
        profile = frequency_profile(workload)
        assert profile.total_static == workload.static_instrs
        assert profile.total_dynamic == workload.total_dynamic_instrs
        assert sum(profile.dynamic_fractions()) == pytest.approx(1.0)

    def test_static_above_thresholds(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=5_000_000, seed=0)
        profile = frequency_profile(workload, thresholds=(25, 8000))
        assert profile.static_above(25) >= profile.static_above(8000)


class TestReporting:
    def test_format_table(self):
        text = format_table(["name", "value"],
                            [["a", 1.5], ["b", float("inf")]],
                            title="T")
        assert "T" in text and "a" in text and "inf" in text

    def test_format_table_large_numbers(self):
        text = format_table(["v"], [[123456.0]])
        assert "1.23e+05" in text
