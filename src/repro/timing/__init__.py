"""Timing substrate: cycle accounting for the startup study.

The functional layer (:mod:`repro.core`) establishes *what* each machine
configuration executes; this package models *how long* it takes, at basic
block granularity, at the paper's full scale (500M-instruction traces over
~150K-instruction working sets).  The simulator is event-driven: discrete
events (first-touch translation, threshold crossing, cold cache misses,
mode transitions) are simulated exactly, and the homogeneous stretches of
loop iterations between events are advanced in closed form — which is
exact under the block-level cost model.
"""

from repro.timing.caches import ColdFootprintModel
from repro.timing.pipeline import ModeCosts, mode_costs_for
from repro.timing.sampler import LogSampler, SampledSeries
from repro.timing.startup_sim import StartupResult, StartupSimulator, \
    simulate_startup
from repro.timing.scenarios import Scenario

__all__ = [
    "ColdFootprintModel", "LogSampler", "ModeCosts", "SampledSeries",
    "Scenario", "StartupResult", "StartupSimulator",
    "mode_costs_for", "simulate_startup",
]
