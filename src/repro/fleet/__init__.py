"""Mass-boot fleet harness — herds of VMs against one shared cache.

The paper's consolidation claim is about *many* co-designed VMs
starting at once; this package is the scenario harness that makes the
claim measurable.  See ``docs/fleet.md`` and the ``repro fleet``
CLI verbs.

* :mod:`repro.fleet.grid` — declarative scenarios + grid expansion;
* :mod:`repro.fleet.engine` — boots the herd on a thread pool
  against a self-hosted cache server, deterministically;
* :mod:`repro.fleet.report` — percentile distributions, amortization
  curves, server load, degradation sums;
* :mod:`repro.fleet.export` — the whole fleet as one Perfetto trace.
"""

from repro.fleet.engine import (
    FleetEngine,
    FleetResult,
    InstanceResult,
    perturb_source,
    run_sweep,
    steady_state_cycle,
)
from repro.fleet.export import export_fleet_trace
from repro.fleet.grid import (
    AXIS_ORDER,
    BOOT_POLICIES,
    DEFAULT_GRID,
    IMAGE_POLICIES,
    FleetScenario,
    expand_grid,
)
from repro.fleet.report import (
    SCHEMA,
    FleetReport,
    amortization_gain,
    build_report,
    fleet_entry,
    serialize_report,
    validate_report,
)

__all__ = [
    "AXIS_ORDER",
    "BOOT_POLICIES",
    "DEFAULT_GRID",
    "IMAGE_POLICIES",
    "SCHEMA",
    "FleetEngine",
    "FleetReport",
    "FleetResult",
    "FleetScenario",
    "InstanceResult",
    "amortization_gain",
    "build_report",
    "expand_grid",
    "export_fleet_trace",
    "fleet_entry",
    "perturb_source",
    "run_sweep",
    "serialize_report",
    "steady_state_cycle",
    "validate_report",
]
