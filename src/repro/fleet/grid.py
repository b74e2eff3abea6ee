"""Declarative parameter grids for fleet-boot scenarios.

The two band0 mass-boot benchmarks define the axes this module makes
first-class: xenrt's ``TCTimeVMStarts`` times a herd of clones of one
gold image, and vm5k's ``VMBootTime`` sweeps boot policy
(``all_at_once`` vs ``one_then_others``) and image policy (``one`` vs
``one_per_vm``).  A :class:`FleetScenario` is one point in that space —
everything the engine needs to boot N instances reproducibly — and
:func:`expand_grid` turns an axis mapping into the deterministic list
of scenarios a sweep runs.

Axes:

* ``n`` — fleet size (instances booted);
* ``boot_policy`` — ``all_at_once`` (the whole herd boots against the
  initial store state) or ``one_then_others`` (rank 0 boots alone and
  publishes its translations before the rest of the herd starts);
* ``image_policy`` — ``one`` (every instance boots the same gold
  image, so translations are shared through the cache server) or
  ``one_per_vm`` (each instance's image is uniquely perturbed with
  unreachable padding, so fingerprints — and therefore cache entries —
  never collide);
* ``config`` — VM configuration (``soft``/``be``/``fe`` aliases or
  full Table 2 names);
* ``warm`` — whether the server's repository is pre-populated with the
  workload's translations before the herd boots;
* ``workload`` — a seed program name (:data:`repro.workloads.programs
  .PROGRAMS`);
* ``seed`` — the scenario seed (image perturbation, client jitter);
* ``shards`` / ``replicas`` — the topology of the
  :class:`~repro.cluster.manager.LocalCluster` the herd boots through:
  ``1x1`` (default) is one cache server, anything larger a
  sharded/replicated grid (see ``docs/cluster.md``); same client
  either way.  The axes only appear in the canonical scenario dict
  when they are not 1x1, so those reports' scenario sections keep the
  bytes they always had.

Scenario expansion order is fixed by :data:`AXIS_ORDER`, never by dict
iteration order of the caller's mapping, so a sweep's report is
byte-stable across runs and hosts.

A scenario has no fault axis: a herd is plain boots, and chaos runs
through one cache server or a cluster are
:func:`repro.faults.harness.run_faulted`'s (``docs/robustness.md``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Sequence

from repro.workloads.programs import PROGRAMS

BOOT_POLICIES = ("all_at_once", "one_then_others")
IMAGE_POLICIES = ("one", "one_per_vm")

#: Canonical axis expansion order (outermost first).  `expand_grid`
#: iterates the cartesian product in exactly this order regardless of
#: how the caller's mapping is ordered.
AXIS_ORDER = ("n", "boot_policy", "image_policy", "config", "warm",
              "workload", "seed", "shards", "replicas")


@dataclass(frozen=True)
class FleetScenario:
    """One point in the fleet-boot design space."""

    n: int = 8
    boot_policy: str = "all_at_once"
    image_policy: str = "one"
    config: str = "soft"
    warm: bool = False
    workload: str = "fibonacci"
    seed: int = 0
    shards: int = 1
    replicas: int = 1
    # execution knobs (not grid axes; excluded from the canonical dict)
    hot_threshold: int = 20
    max_instructions: int = 2_000_000
    #: boot processes the herd is forked onto (at most one a rank;
    #: ``one_then_others`` boots rank 0 in the engine's own process)
    workers: int = 8
    #: per-request deadline budget (seconds) each instance's client
    #: spends across attempts/retries/failovers (docs/overload.md)
    request_budget: float = 8.0
    #: server-side admission bound on concurrently dispatching store
    #: ops (None = unlimited); the overload gate undersizes this
    max_queue_depth: object = None
    #: attach a ClusterCollector to the hosted server(s): scrape
    #: telemetry, embed SLO verdicts, export the distributed trace
    #: lanes (``repro fleet --collect``; docs/observability.md)
    collect: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"fleet size must be >= 1, got {self.n}")
        if self.workers < 1:
            raise ValueError(
                f"boot processes must be >= 1, got workers={self.workers}")
        if self.boot_policy not in BOOT_POLICIES:
            raise ValueError(
                f"unknown boot policy {self.boot_policy!r}; "
                f"choose from {BOOT_POLICIES}")
        if self.image_policy not in IMAGE_POLICIES:
            raise ValueError(
                f"unknown image policy {self.image_policy!r}; "
                f"choose from {IMAGE_POLICIES}")
        if self.workload not in PROGRAMS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{sorted(PROGRAMS)}")
        if self.shards < 1 or self.replicas < 1:
            raise ValueError(
                f"cluster topology must be >= 1x1, got "
                f"{self.shards}x{self.replicas}")

    @property
    def cluster(self) -> bool:
        """Whether the topology is anything beyond 1x1 (and so is
        spelled out in the label and the canonical dict)."""
        return self.shards > 1 or self.replicas > 1

    def label(self) -> str:
        parts = [f"n={self.n}", self.boot_policy, self.image_policy,
                 self.config, "warm" if self.warm else "cold",
                 self.workload, f"seed={self.seed}"]
        if self.cluster:
            parts.append(f"cluster={self.shards}x{self.replicas}")
        return " ".join(parts)

    def to_dict(self) -> Dict:
        """Canonical axis dict (what the fleet report embeds).  The
        cluster axes appear only for cluster scenarios, so 1x1 reports
        serialize byte-identically to pre-cluster releases."""
        doc = {
            "n": self.n,
            "boot_policy": self.boot_policy,
            "image_policy": self.image_policy,
            "config": self.config,
            "warm": self.warm,
            "workload": self.workload,
            "seed": self.seed,
        }
        if self.cluster:
            doc["shards"] = self.shards
            doc["replicas"] = self.replicas
        return doc


_SCENARIO_FIELDS = {f.name for f in fields(FleetScenario)}


def expand_grid(axes: Mapping[str, Sequence],
                **fixed) -> List[FleetScenario]:
    """Cartesian product of ``axes`` in :data:`AXIS_ORDER`.

    ``axes`` maps axis names to value sequences; axes not given take
    the :class:`FleetScenario` default.  ``fixed`` keyword values apply
    to every scenario (execution knobs like ``workers`` or
    ``max_instructions``).  Unknown names raise so a typo'd sweep axis
    cannot silently collapse into a single default scenario.
    """
    for name in axes:
        if name not in AXIS_ORDER:
            raise ValueError(
                f"unknown grid axis {name!r}; axes are {AXIS_ORDER}")
    for name in fixed:
        if name not in _SCENARIO_FIELDS:
            raise ValueError(f"unknown scenario field {name!r}")
    ordered = [name for name in AXIS_ORDER if name in axes]
    value_lists = [list(axes[name]) for name in ordered]
    for name, values in zip(ordered, value_lists):
        if not values:
            raise ValueError(f"grid axis {name!r} has no values")
    scenarios = []
    for combo in itertools.product(*value_lists):
        params = dict(zip(ordered, combo))
        params.update(fixed)
        scenarios.append(FleetScenario(**params))
    return scenarios


#: The acceptance sweep: both boot policies x both image policies at
#: two herd sizes (``repro fleet sweep`` defaults; the
#: ``bench_fleet_boot`` benchmark runs the same grid).
DEFAULT_GRID: Dict[str, Sequence] = {
    "n": (8, 64),
    "boot_policy": BOOT_POLICIES,
    "image_policy": IMAGE_POLICIES,
}
