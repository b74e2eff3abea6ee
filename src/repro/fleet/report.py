"""Fleet reports — percentile distributions and amortization curves.

A report reduces one or more :class:`~repro.fleet.engine.FleetResult`
herds to the questions the paper's consolidation scenario asks:

* **How long until the herd is steady?**  Per-fleet
  time-to-steady-state distribution (p50/p95/p99 plus min/mean/max),
  estimated through the same power-of-two
  :class:`~repro.obs.metrics.Histogram` machinery every other
  distribution in this repo uses — coarse but deterministic and
  monotone in the quantile.
* **How does the shared cache amortize?**  A per-boot-rank curve of
  steady-state time, warm-start loads and push dedup: in the
  shared-image configuration later ranks pull what rank 0 translated,
  so their startup transient collapses and their pushes dedup to
  zero new objects.
* **What did the server pay?**  The hosted server's request counters
  (and, in non-canonical reports, its wall-clock per-op latency).
* **Did anything degrade?**  Client-side retry/fallback/breaker sums
  across the herd — all zero in a healthy fleet.

Reports are canonical by default: every value is a pure function of
the scenario (simulated cycles, record counts), so the same seed
serializes byte-identically across runs and hosts
(:func:`serialize_report` pins key order and separators exactly like
the benchmark and trace emitters).  :func:`validate_report` is the
schema-and-invariants gate the tests and the ``collect`` drill run.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

log = logging.getLogger("repro.fleet")

SCHEMA = "repro.fleet/v1"

#: RemoteStats counters summed across the herd for the degradation
#: section (zero across the board in a healthy fleet): the request
#: path's failure counters and the ladder's, on every topology.
DEGRADATION_COUNTERS = ("retries", "timeouts", "conn_errors",
                        "protocol_errors", "lease_busy",
                        "server_errors", "breaker_opens",
                        "breaker_short_circuits", "fallbacks",
                        "failovers", "stale_replicas",
                        "group_degradations", "local_fallbacks",
                        "cold_degradations", "quorum_misses",
                        "push_group_failures")

_PERCENTILES = (50, 95, 99)


def distribution(values: List[float], name: str) -> Dict:
    """Percentile summary of ``values`` via one pow2 histogram."""
    histogram = MetricsRegistry().histogram(name)
    for value in values:
        histogram.observe(value)
    summary: Dict = {
        "count": histogram.count,
        "min": histogram.min if histogram.count else None,
        "mean": histogram.mean,
        "max": histogram.max if histogram.count else None,
    }
    for q in _PERCENTILES:
        summary[f"p{q}"] = histogram.percentile(q)
    return summary


def amortization_curve(instances: List[Dict]) -> List[Dict]:
    """Per-boot-rank cost curve (instances are canonical dicts)."""
    return [{
        "rank": instance["rank"],
        "tts_cycles": instance["tts_cycles"],
        "total_cycles": instance["total_cycles"],
        "records_loaded": instance["records_loaded"],
        "push_written": instance["push_written"],
        "push_deduped": instance["push_deduped"],
    } for instance in instances]


def degradation_summary(instances: List[Dict]) -> Dict:
    summary = {name: 0 for name in DEGRADATION_COUNTERS}
    for instance in instances:
        remote = instance.get("remote", {})
        for name in DEGRADATION_COUNTERS:
            summary[name] += remote.get(name, 0)
    return summary


def fleet_entry(result, canonical: bool = True) -> Dict:
    """One fleet's report section, from a FleetResult."""
    doc = result.to_dict(canonical=canonical)
    instances = doc["instances"]
    entry = {
        "scenario": doc["scenario"],
        "label": result.scenario.label(),
        "arch_ok": doc["arch_ok"],
        "tts": distribution([i["tts_cycles"] for i in instances],
                            "fleet_tts_cycles"),
        "total": distribution([i["total_cycles"] for i in instances],
                              "fleet_total_cycles"),
        "amortization": amortization_curve(instances),
        "degraded": degradation_summary(instances),
        "server": doc["server"],
        "instances": instances,
    }
    if "telemetry" in doc:
        entry["telemetry"] = doc["telemetry"]
    return entry


def build_report(results, canonical: bool = True) -> Dict:
    """The full report document for a list of FleetResults."""
    return {
        "schema": SCHEMA,
        "fleets": [fleet_entry(result, canonical=canonical)
                   for result in results],
    }


def amortization_gain(entry: Dict) -> Optional[float]:
    """Rank-0 steady-state cycles divided by the later ranks' mean —
    the headline "later boots are cheaper" number (> 1.0 means the
    shared cache amortized).  None for single-instance fleets."""
    curve = entry["amortization"]
    if len(curve) < 2:
        return None
    rank0 = curve[0]["tts_cycles"]
    later = [point["tts_cycles"] for point in curve[1:]]
    mean_later = sum(later) / len(later)
    if mean_later == 0:
        return float("inf") if rank0 > 0 else 1.0
    return rank0 / mean_later


class FleetReport:
    """Thin wrapper: build from results or rehydrate from a dict."""

    def __init__(self, doc: Dict) -> None:
        self.doc = doc

    @classmethod
    def from_results(cls, results,
                     canonical: bool = True) -> "FleetReport":
        return cls(build_report(results, canonical=canonical))

    def to_dict(self) -> Dict:
        return self.doc

    def write(self, path) -> None:
        Path(path).write_text(serialize_report(self.doc))
        log.info("fleet report written to %s", path)

    def format(self) -> str:
        lines = []
        for entry in self.doc.get("fleets", []):
            tts = entry["tts"]
            lines.append(entry.get("label") or
                         json.dumps(entry["scenario"], sort_keys=True))
            lines.append(
                f"  steady-state cycles: p50={tts['p50']} "
                f"p95={tts['p95']} p99={tts['p99']} "
                f"(mean {tts['mean']:.1f}, n={tts['count']})")
            gain = amortization_gain(entry)
            if gain is not None:
                lines.append(f"  amortization gain vs rank 0: "
                             f"{'inf' if gain == float('inf') else f'{gain:.2f}'}x")
            degraded = {name: count for name, count
                        in entry["degraded"].items() if count}
            lines.append(f"  degradations: {degraded or 'none'}")
            server = entry["server"]
            lines.append(
                f"  server: requests={server.get('requests', {})} "
                f"served={server.get('records_served', 0)} "
                f"deduped={server.get('objects_deduped', 0)} "
                f"lease_busy={server.get('lease_busy', 0)}")
            lines.append(f"  arch_ok: {entry['arch_ok']}")
        return "\n".join(lines)


def serialize_report(doc: Dict) -> str:
    """Deterministic serialization (same contract as the benchmark
    and trace emitters: sorted keys, fixed separators, one trailing
    newline)."""
    return json.dumps(doc, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def validate_report(doc: Dict) -> List[str]:
    """Schema + invariant check; returns problems (empty = valid)."""
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema: {doc.get('schema')!r} != {SCHEMA!r}")
    fleets = doc.get("fleets")
    if not isinstance(fleets, list):
        return problems + ["fleets: missing or not a list"]
    for index, entry in enumerate(fleets):
        where = f"fleets/{index}"
        scenario = entry.get("scenario")
        if not isinstance(scenario, dict) or "n" not in scenario:
            problems.append(f"{where}/scenario: malformed")
            continue
        for section in ("tts", "total", "amortization", "degraded",
                        "server", "instances"):
            if section not in entry:
                problems.append(f"{where}: missing {section!r}")
        tts = entry.get("tts", {})
        quantiles = [tts.get(f"p{q}") for q in _PERCENTILES]
        if all(isinstance(v, (int, float)) for v in quantiles):
            if not (quantiles[0] <= quantiles[1] <= quantiles[2]):
                problems.append(
                    f"{where}/tts: percentiles not monotone {quantiles}")
        elif tts.get("count"):
            problems.append(f"{where}/tts: missing percentiles")
        curve = entry.get("amortization", [])
        if len(curve) != scenario["n"]:
            problems.append(
                f"{where}/amortization: {len(curve)} point(s) for "
                f"n={scenario['n']}")
        if [point.get("rank") for point in curve] != \
                list(range(len(curve))):
            problems.append(f"{where}/amortization: ranks not 0..n-1")
        if entry.get("arch_ok") is not True:
            problems.append(
                f"{where}: architected divergence across the fleet")
    return problems
