"""Log sampler and breakeven-math tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.timing.sampler import (
    LogSampler,
    SampledSeries,
    crossover_cycles,
    interpolate_at,
)


class TestLogSampler:
    def test_log_spacing(self):
        sampler = LogSampler(first=100, per_decade=1, max_cycles=1e5)
        sampler.advance(1e5, 1e5)
        series = sampler.finish()
        assert series.cycles[:4] == [100, 1000, 10000, 100000]

    def test_linear_interpolation_within_segment(self):
        sampler = LogSampler(first=100, per_decade=1)
        sampler.advance(1000, 500)  # IPC 0.5 throughout
        series = sampler.finish()
        # at the 100-cycle point, 50 instructions
        index = series.cycles.index(100)
        assert series.instructions[index] == pytest.approx(50)

    def test_zero_instruction_segments(self):
        sampler = LogSampler(first=100, per_decade=1)
        sampler.advance(150, 0)      # pure stall (e.g. translation)
        sampler.advance(850, 850)
        series = sampler.finish()
        index = series.cycles.index(100)
        assert series.instructions[index] == 0

    def test_aux_channel(self):
        sampler = LogSampler(first=100, per_decade=1)
        sampler.advance(200, 100, delta_aux=200)
        sampler.advance(800, 800, delta_aux=0)
        series = sampler.finish()
        assert series.aux[-1] == 200      # of 1000 cycles
        assert series.cycles[-1] == 1000

    def test_aggregate_ipc(self):
        sampler = LogSampler(first=100, per_decade=1)
        sampler.advance(1000, 250)
        series = sampler.finish()
        assert series.aggregate_ipc()[-1] == pytest.approx(0.25)

    def test_negative_advance_rejected(self):
        sampler = LogSampler()
        with pytest.raises(ValueError):
            sampler.advance(-1, 0)

    def test_finish_appends_endpoint(self):
        sampler = LogSampler(first=100, per_decade=1)
        sampler.advance(550, 300)
        series = sampler.finish()
        assert series.cycles[-1] == 550
        assert series.instructions[-1] == 300

    @given(segments=st.lists(
        st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
        min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_monotone_series(self, segments):
        sampler = LogSampler(first=100, per_decade=4)
        for cycles, instrs in segments:
            sampler.advance(cycles, instrs)
        series = sampler.finish()
        assert all(a <= b for a, b in zip(series.cycles,
                                          series.cycles[1:]))
        assert all(a <= b + 1e-6 for a, b in zip(series.instructions,
                                                 series.instructions[1:]))


class TestInterpolation:
    def make_series(self):
        return SampledSeries(cycles=[100.0, 1000.0, 10000.0],
                             instructions=[10.0, 400.0, 9000.0])

    def test_exact_points(self):
        series = self.make_series()
        assert interpolate_at(series, 1000) == 400

    def test_between_points(self):
        series = self.make_series()
        assert interpolate_at(series, 5500) == pytest.approx(
            400 + 0.5 * 8600)

    def test_before_first_point(self):
        series = self.make_series()
        assert interpolate_at(series, 50) == pytest.approx(5)

    def test_after_last_point_saturates(self):
        series = self.make_series()
        assert interpolate_at(series, 1e9) == 9000

    def test_empty(self):
        assert interpolate_at(SampledSeries(), 100) == 0


class TestCrossover:
    def test_simple_crossover(self):
        slow_start = SampledSeries(cycles=[1e3, 1e4, 1e5, 1e6],
                                   instructions=[10, 5000, 9e4, 1.1e6])
        steady = SampledSeries(cycles=[1e3, 1e4, 1e5, 1e6],
                               instructions=[900, 9000, 9e4 + 1, 1e6])
        point = crossover_cycles(slow_start, steady, start=1e3)
        assert 1e5 < point <= 1e6

    def test_never_crosses(self):
        behind = SampledSeries(cycles=[1e3, 1e6],
                               instructions=[1, 100])
        ahead = SampledSeries(cycles=[1e3, 1e6],
                              instructions=[10, 1000])
        assert math.isinf(crossover_cycles(behind, ahead))

    def test_always_ahead(self):
        ahead = SampledSeries(cycles=[1e3, 1e6],
                              instructions=[10, 1000])
        behind = SampledSeries(cycles=[1e3, 1e6],
                               instructions=[1, 100])
        point = crossover_cycles(ahead, behind, start=1e3)
        assert point == 1e3

    def test_transient_lead_ignored(self):
        # first leads early, falls behind, then catches up permanently:
        # breakeven is the FINAL catch-up
        first = SampledSeries(cycles=[1e3, 1e4, 1e5, 1e6],
                              instructions=[20, 50, 600, 2000])
        second = SampledSeries(cycles=[1e3, 1e4, 1e5, 1e6],
                               instructions=[10, 100, 1000, 1500])
        point = crossover_cycles(first, second, start=1e3)
        assert point > 1e5
