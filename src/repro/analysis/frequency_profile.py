"""Instruction execution-frequency profiles — Fig. 3.

For a workload (or suite), bucket static instructions by how many times
they execute, and dynamic instructions by the execution count of their
home block.  The left axis of Fig. 3 is the static histogram; the right
axis is the dynamic distribution, whose peak the paper highlights
("30+% of all dynamic instructions execute more than 10K times, but less
than 100K").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.workloads.trace import Workload

#: Fig. 3's x-axis bucket lower bounds ("1+", "10+", ... "10,000,000+").
DEFAULT_BUCKETS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
                   10_000_000)


@dataclass
class FrequencyProfile:
    """Bucketed execution-frequency data."""

    buckets: tuple = DEFAULT_BUCKETS
    static_instrs: List[float] = field(default_factory=list)
    dynamic_instrs: List[float] = field(default_factory=list)
    total_static: float = 0.0
    total_dynamic: float = 0.0

    def static_above(self, threshold: int) -> float:
        """Static instructions whose execution count is >= threshold
        (exact, accumulated during profiling)."""
        return self._static_above.get(threshold, 0.0)

    _static_above: dict = field(default_factory=dict)

    def dynamic_fractions(self) -> List[float]:
        if not self.total_dynamic:
            return [0.0] * len(self.buckets)
        return [value / self.total_dynamic
                for value in self.dynamic_instrs]

    def peak_dynamic_bucket(self) -> int:
        """Lower bound of the bucket holding the most dynamic weight."""
        fractions = self.dynamic_fractions()
        return self.buckets[fractions.index(max(fractions))]


def frequency_profile(workload: Workload,
                      buckets: tuple = DEFAULT_BUCKETS,
                      thresholds: Iterable[int] = (25, 8000)
                      ) -> FrequencyProfile:
    """Profile one workload."""
    profile = FrequencyProfile(buckets=buckets,
                               static_instrs=[0.0] * len(buckets),
                               dynamic_instrs=[0.0] * len(buckets))
    profile._static_above = {threshold: 0.0 for threshold in thresholds}
    for region in workload.regions:
        count = region.total_iterations
        instrs = region.instr_count
        profile.total_static += instrs
        profile.total_dynamic += count * instrs
        for threshold in profile._static_above:
            if count >= threshold:
                profile._static_above[threshold] += instrs
        for index in range(len(buckets) - 1, -1, -1):
            if count >= buckets[index]:
                profile.static_instrs[index] += instrs
                profile.dynamic_instrs[index] += count * instrs
                break
    return profile


def suite_frequency_profile(workloads: Iterable[Workload],
                            buckets: tuple = DEFAULT_BUCKETS,
                            thresholds: Iterable[int] = (25, 8000)
                            ) -> FrequencyProfile:
    """Aggregate profile over a suite (Fig. 3 averages the ten traces)."""
    thresholds = tuple(thresholds)
    combined = FrequencyProfile(buckets=buckets,
                                static_instrs=[0.0] * len(buckets),
                                dynamic_instrs=[0.0] * len(buckets))
    combined._static_above = {threshold: 0.0 for threshold in thresholds}
    count = 0
    for workload in workloads:
        profile = frequency_profile(workload, buckets, thresholds)
        for index in range(len(buckets)):
            combined.static_instrs[index] += profile.static_instrs[index]
            combined.dynamic_instrs[index] += \
                profile.dynamic_instrs[index]
        combined.total_static += profile.total_static
        combined.total_dynamic += profile.total_dynamic
        for threshold in thresholds:
            combined._static_above[threshold] += \
                profile.static_above(threshold)
        count += 1
    if count:
        # report per-app averages on the static axis, like the paper
        combined.static_instrs = [value / count
                                  for value in combined.static_instrs]
        combined.total_static /= count
        combined._static_above = {
            threshold: value / count
            for threshold, value in combined._static_above.items()}
    return combined
