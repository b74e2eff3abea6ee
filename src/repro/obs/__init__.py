"""Observability for the translation stack — the VM's instrument panel.

The paper's whole argument is a *time-attribution* claim: startup cycles
split among interpretation, BBT translation, BBT-code execution, SBT
translation and native hotspot execution (Eq. 1, Figs. 2/8/10).  This
package makes that attribution a first-class, per-run artifact instead
of a bench-only aggregate:

* :mod:`repro.obs.metrics` — the metrics registry (counters, gauges,
  histograms with labeled series) behind the cache server's wire
  snapshot, and the pow2 percentile machinery of fleet reports and the
  collector (VM counters are plain attributes, reported by ``stats()``
  and ``ExecutionReport``);
* :mod:`repro.obs.ledger` — the cycle-attribution ledger: every
  simulated cycle lands in exactly one Eq. 1 phase bucket, with a
  per-interval timeline and per-block translation-overhead profiles;
* :mod:`repro.obs.tracer` — the typed lifecycle event tracer plus the
  bounded flight recorder dumped on runtime faults;
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON export
  and the checked-in trace schema validator;
* :mod:`repro.obs.logutil` — the ``repro.*`` logging tree configuration
  used by the CLI's ``--log-level`` flag;
* :mod:`repro.obs.telemetry` — wire-propagated trace contexts, the
  server-side span buffer and exact pow2-snapshot merging (the
  distributed half of tracing);
* :mod:`repro.obs.collector` — the cluster-wide telemetry scraper
  driving ``repro monitor`` and the fleet ``--collect`` axis;
* :mod:`repro.obs.slo` — declarative SLO rules evaluated into
  pass/warn/fail verdicts with burn accounting.

Tracing is off by default and the hooks are guarded (``tracer is None``
checks on dispatch paths), so a non-traced run pays near-zero cost;
the ``trace-overhead`` drill gates that.  Enabled tracing is deterministic:
timestamps come from the simulated-cycle clock, never the wall clock,
so the same workload and seed produce a byte-identical event stream.
"""

from repro.obs.ledger import (
    EQ1_PHASES,
    CycleLedger,
    RuntimePhaseCosts,
    runtime_phase_costs,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import EventTracer, TraceEvent
from repro.obs.export import (
    export_trace,
    load_trace_schema,
    validate_trace,
)
from repro.obs.logutil import configure_logging
from repro.obs.telemetry import (
    SpanBuffer,
    TraceContext,
    histogram_percentile,
    merge_histogram,
    merge_snapshots,
)
from repro.obs.collector import ClusterCollector
from repro.obs.slo import DEFAULT_SLOS, SLORule, evaluate, load_slo_file

__all__ = [
    "ClusterCollector",
    "Counter",
    "CycleLedger",
    "DEFAULT_SLOS",
    "EQ1_PHASES",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RuntimePhaseCosts",
    "SLORule",
    "SpanBuffer",
    "TraceContext",
    "TraceEvent",
    "configure_logging",
    "evaluate",
    "export_trace",
    "histogram_percentile",
    "load_slo_file",
    "load_trace_schema",
    "merge_histogram",
    "merge_snapshots",
    "runtime_phase_costs",
    "validate_trace",
]
