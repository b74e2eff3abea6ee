"""Workload model tests: structure, determinism, calibration."""

import numpy as np
import pytest

from repro.workloads import (
    WINSTONE_APPS,
    generate_workload,
    spec_like_profile,
    winstone_app,
    winstone_suite,
)
from repro.analysis.frequency_profile import (
    frequency_profile,
    suite_frequency_profile,
)


class TestSuiteDefinitions:
    def test_ten_apps(self):
        assert len(winstone_suite()) == 10

    def test_app_names_match_fig9(self):
        names = [app.name for app in winstone_suite()]
        assert names == ["Access", "Excel", "FrontPage", "IE", "Norton",
                         "Outlook", "PowerPoint", "Project", "Winzip",
                         "Word"]

    def test_project_speedup_is_three_percent(self):
        # the paper singles Project out: steady state only +3%
        assert winstone_app("Project").vm_speedup == pytest.approx(1.03)

    def test_suite_average_speedup_near_eight_percent(self):
        mean = np.mean([app.vm_speedup for app in winstone_suite()])
        assert 1.06 <= mean <= 1.10

    def test_suite_average_static_near_150k(self):
        mean = np.mean([app.static_instrs for app in winstone_suite()])
        assert 130_000 <= mean <= 180_000

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            winstone_app("Doom")

    def test_spec_profile_contrast(self):
        spec = spec_like_profile()
        assert spec.vm_speedup == pytest.approx(1.18)
        assert spec.fused_fraction > winstone_app("Word").fused_fraction
        assert spec.static_instrs < winstone_app("Word").static_instrs


class TestGeneration:
    def test_deterministic_by_seed(self):
        app = winstone_app("Word")
        first = generate_workload(app, dyn_instrs=10_000_000, seed=7)
        second = generate_workload(app, dyn_instrs=10_000_000, seed=7)
        assert first.static_instrs == second.static_instrs
        assert [e.region_index for e in first.episodes] == \
            [e.region_index for e in second.episodes]
        assert [e.iterations for e in first.episodes] == \
            [e.iterations for e in second.episodes]

    def test_different_seeds_differ(self):
        app = winstone_app("Word")
        first = generate_workload(app, dyn_instrs=10_000_000, seed=1)
        second = generate_workload(app, dyn_instrs=10_000_000, seed=2)
        assert [e.iterations for e in first.episodes] != \
            [e.iterations for e in second.episodes]

    def test_dynamic_length_hit_exactly_via_episodes(self):
        app = winstone_app("IE")
        workload = generate_workload(app, dyn_instrs=50_000_000, seed=0)
        from_episodes = sum(
            episode.iterations
            * workload.regions[episode.region_index].instr_count
            for episode in workload.episodes)
        assert from_episodes == workload.total_dynamic_instrs

    def test_dynamic_length_close_to_target(self):
        app = winstone_app("IE")
        workload = generate_workload(app, dyn_instrs=50_000_000, seed=0)
        assert workload.total_dynamic_instrs == pytest.approx(
            50_000_000, rel=0.02)

    def test_static_size_close_to_profile(self):
        app = winstone_app("Excel")
        workload = generate_workload(app, dyn_instrs=10_000_000, seed=0)
        assert workload.static_instrs == pytest.approx(
            app.static_instrs, rel=0.15)

    def test_episode_positions_sorted(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=10_000_000, seed=0)
        positions = [episode.positions if False else episode.position
                     for episode in workload.episodes]
        assert positions == sorted(positions)

    def test_episode_iteration_totals_match_regions(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=10_000_000, seed=0)
        totals = {}
        for episode in workload.episodes:
            totals[episode.region_index] = \
                totals.get(episode.region_index, 0) + episode.iterations
        for region in workload.regions:
            assert totals[region.index] == region.total_iterations

    def test_block_addresses_monotone(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=10_000_000, seed=0)
        addrs = [block.addr for region in workload.regions
                 for block in region.blocks]
        assert addrs == sorted(addrs)

    def test_blocks_have_positive_sizes(self):
        workload = generate_workload(winstone_app("Word"),
                                     dyn_instrs=10_000_000, seed=0)
        assert all(block.size >= 1 and block.nbytes >= block.size
                   for region in workload.regions
                   for block in region.blocks)


def hot_mass(profile, threshold=100_000):
    """Share of the dynamic instructions in buckets at/above
    ``threshold`` executions."""
    hot = sum(value for bucket, value
              in zip(profile.buckets, profile.dynamic_instrs)
              if bucket >= threshold)
    return hot / profile.total_dynamic


class TestFig3Calibration:
    """The suite-level frequency profile must match Fig. 3's reported
    properties at the 100M-instruction reference length."""

    @pytest.fixture(scope="class")
    def profile(self):
        workloads = [generate_workload(app, dyn_instrs=100_000_000,
                                       seed=0)
                     for app in winstone_suite()]
        return suite_frequency_profile(workloads)

    def test_static_working_set_near_150k(self, profile):
        assert 120_000 <= profile.total_static <= 190_000

    def test_hot_static_same_order_as_3k(self, profile):
        hot = profile.static_above(8000)
        assert 1_000 <= hot <= 9_000  # paper: ~3K

    def test_dynamic_peak_bucket_is_10k(self, profile):
        # paper: "30+% of all dynamic instructions execute more than 10K
        # times, but less than 100K times"
        assert profile.peak_dynamic_bucket() == 10_000
        fractions = profile.dynamic_fractions()
        assert max(fractions) >= 0.30

    def test_static_histogram_decreasing(self, profile):
        # most static code is cold; counts fall off with frequency
        static = profile.static_instrs
        assert static[1] > static[3] > static[5]

    def test_longer_traces_shift_right(self):
        # the paper's arrow: run 5x longer, the dynamic peak moves right
        app = winstone_app("Word")
        short = frequency_profile(
            generate_workload(app, dyn_instrs=100_000_000, seed=0))
        long_ = frequency_profile(
            generate_workload(app, dyn_instrs=500_000_000, seed=0))
        assert hot_mass(long_) > hot_mass(short)
