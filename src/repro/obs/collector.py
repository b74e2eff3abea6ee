"""ClusterCollector — the central telemetry scraper for a sharded
translation-cache cluster.

One collector owns one cluster spec and polls every replica of every
shard through the wire ``telemetry`` op
(:mod:`repro.cacheserver.protocol`), merging what comes back into a
deterministic time-series store:

* **scrape index is the time axis** — not the wall clock, so two runs
  of the same fleet scrape the same counters at the same indices and
  the canonical snapshot serializes byte-identically;
* **per-scrape labeled deltas** — each numeric series diffs against
  the previous scrape (clamped at zero across a replica restart);
* **exact histogram re-merge** — pow2 latency buckets from every
  replica sum bound-by-bound
  (:func:`repro.obs.telemetry.merge_histogram`), so the fleet-wide
  p99 is what one histogram observing everything would report;
* **SLO verdicts** — declarative rules (:mod:`repro.obs.slo`) over
  the derived indicators, with burn accounting;
* **anomaly detection** — down targets, breaker/reachability
  flapping, replica divergence (a replica holding fewer objects than
  its group's best — the signature of a missed fan-out write).

Targets are keyed ``<group>/replica<index>`` — never by address —
because LocalCluster ports are ephemeral; addresses only appear in
non-canonical (operator) snapshots.  Wall-clock material (latency
histograms, wall-clock SLO verdicts) is likewise excluded from
canonical snapshots so the determinism contract of
``results/fleet_boot.json`` survives the embedding.

``repro monitor`` drives one interactively; the fleet engine's
``--collect`` axis attaches one to a hosted cluster for the run's
lifetime (docs/observability.md, docs/fleet.md).
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.slo import DEFAULT_SLOS, evaluate
from repro.obs.telemetry import (
    DEFAULT_MAX_SPANS,
    counter_deltas,
    histogram_percentile,
    merge_snapshots,
    telemetry_request,
)

log = logging.getLogger("repro.obs")

SCHEMA = "repro.telemetry/v1"

#: Metric series excluded from canonical snapshots: their values come
#: from the wall clock, which byte-stable documents must not carry.
WALL_CLOCK_SERIES = ("server_op_latency_ms",)

#: Indicators likewise derived from wall-clock series.
WALL_CLOCK_INDICATORS = frozenset({"pull_p99_ms"})


class ClusterCollector:
    """Scrape every replica of every shard; merge, diff and judge.

    ``spec`` is anything :meth:`repro.cluster.ClusterSpec.parse`
    accepts (a single server wraps as ``"shard0=<address>"``).  The
    collector owns one :class:`~repro.persist.remote.ReplicaSet` engine
    per replica — per *address*, deliberately bypassing the failover
    ladder, because a monitor must see each replica individually.
    """

    def __init__(self, spec, timeout: float = 2.0, retries: int = 1,
                 slos: Optional[Sequence] = None,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        from repro.cluster import ClusterSpec
        from repro.persist.remote import ReplicaSet
        self.spec = ClusterSpec.parse(spec)
        self.slos = tuple(slos) if slos is not None else DEFAULT_SLOS
        self.max_spans = max_spans
        self._clients: Dict[str, "ReplicaSet"] = {}
        self._addresses: Dict[str, str] = {}
        self._groups: Dict[str, str] = {}
        for group in self.spec.groups:
            for index, address in enumerate(group.replicas):
                key = f"{group.name}/replica{index}"
                self._clients[key] = ReplicaSet(
                    [address], name=key, timeout=timeout,
                    retries=retries)
                self._addresses[key] = str(address)
                self._groups[key] = group.name
        self.scrapes = 0
        #: latest per-target record (identity + metrics + deltas)
        self._targets: Dict[str, Dict] = {}
        #: previous scrape's metrics, for delta computation
        self._previous: Dict[str, Dict] = {}
        #: latest span-buffer entries per target (trace export reads
        #: these; they never enter canonical snapshots)
        self._spans: Dict[str, List[Dict]] = {}
        self._was_up: Dict[str, bool] = {}
        #: up/down transitions observed across scrapes
        self.reachability_flaps = 0
        #: summed client-side counters (fleet instances + publishers)
        self.client_stats: Dict[str, float] = {}

    def close(self) -> None:
        for client in self._clients.values():
            client.close()

    def target_keys(self) -> List[str]:
        return sorted(self._clients)

    # -- scraping ------------------------------------------------------------

    def scrape(self) -> Dict[str, Dict]:
        """Poll every target once; returns the per-target records
        (also retained as the collector's latest view)."""
        self.scrapes += 1
        for key in self.target_keys():
            client = self._clients[key]
            try:
                response = client.request(
                    "telemetry", telemetry_request(self.max_spans))
            except Exception as error:  # noqa: BLE001 - a dead replica
                # is a data point for the monitor, never a crash
                log.debug("telemetry scrape of %s failed: %s",
                          key, error)
                record = {"up": False, "shard": self._groups[key],
                          "role": None, "objects": None,
                          "draining": None, "metrics": {},
                          "deltas": {}}
            else:
                metrics = response.get("metrics") or {}
                record = {
                    "up": True,
                    "shard": response.get("shard_id") or
                    self._groups[key],
                    "role": response.get("role"),
                    "objects": response.get("objects"),
                    "draining": response.get("draining"),
                    "metrics": metrics,
                    "deltas": counter_deltas(
                        metrics, self._previous.get(key, {})),
                }
                self._previous[key] = metrics
                spans = response.get("spans") or {}
                self._spans[key] = list(spans.get("entries") or [])
            was_up = self._was_up.get(key)
            if was_up is not None and was_up != record["up"]:
                self.reachability_flaps += 1
            self._was_up[key] = record["up"]
            self._targets[key] = record
        return {key: self._targets[key] for key in self.target_keys()}

    def observe_client_stats(self, counters: Dict) -> None:
        """Fold one client-side counter dict (an instance's remote
        stats, the publisher's, ...) into the fleet-wide sums."""
        for key in sorted(counters):
            value = counters[key]
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                continue
            self.client_stats[key] = \
                self.client_stats.get(key, 0) + value

    # -- derived views -------------------------------------------------------

    def merged_metrics(self) -> Dict:
        """The cluster-wide registry: every target's latest snapshot
        merged exactly (counters sum, histograms re-bucket)."""
        return merge_snapshots(
            record.get("metrics") or {}
            for record in self._targets.values())

    def _staleness(self) -> Tuple[int, int, Dict[str, List[int]]]:
        """(stale replicas, reachable replicas, per-group counts)."""
        by_group: Dict[str, List[int]] = {}
        for key in self.target_keys():
            record = self._targets.get(key) or {}
            if record.get("up") and \
                    isinstance(record.get("objects"), int):
                by_group.setdefault(self._groups[key],
                                    []).append(record["objects"])
        stale = total = 0
        for counts in by_group.values():
            best = max(counts)
            total += len(counts)
            stale += sum(1 for count in counts if count < best)
        return stale, total, by_group

    def indicators(self) -> Dict[str, Optional[float]]:
        """The SLO inputs, derived from the latest scrape + client
        sums.  ``pull_p99_ms`` is wall-clock (see
        :data:`WALL_CLOCK_INDICATORS`); everything else is a pure
        function of simulated state."""
        merged = self.merged_metrics()
        pull = merged.get("server_op_latency_ms{op=pull}")
        pull_p99 = histogram_percentile(pull, 99) \
            if isinstance(pull, dict) else None
        pushes = self.client_stats.get("pushes") or \
            self.client_stats.get("records_pushed") or 0
        quorum_misses = self.client_stats.get("quorum_misses", 0)
        breaker_flaps = self.client_stats.get("breaker_opens", 0) \
            + self.reachability_flaps
        stale, total, _ = self._staleness()
        # overload indicators (docs/overload.md): amplification and
        # deadline misses from the summed client counters, shed rate
        # from the merged server registries.  The labeled per-op
        # request counters spell ``server_requests{op=...}`` — the
        # brace matters, because ``server_requests_shed`` shares the
        # prefix.
        requests = self.client_stats.get("requests", 0)
        retries = self.client_stats.get("retries", 0)
        deadline_missed = \
            self.client_stats.get("deadline_exceeded", 0) + \
            self.client_stats.get("late_responses", 0)
        served = sum(value for series, value in merged.items()
                     if series.startswith("server_requests{")
                     and isinstance(value, (int, float)))
        shed = merged.get("server_requests_shed", 0)
        shed = shed if isinstance(shed, (int, float)) else 0
        return {
            "pull_p99_ms": pull_p99,
            "quorum_miss_rate": (quorum_misses / pushes
                                 if pushes else 0.0),
            "breaker_flaps": float(breaker_flaps),
            "stale_replica_ratio": (stale / total if total else 0.0),
            "retry_amplification": ((requests + retries) / requests
                                    if requests else 1.0),
            "shed_rate": (shed / served if served else 0.0),
            "deadline_miss_rate": (deadline_missed / requests
                                   if requests else 0.0),
        }

    def verdicts(self, canonical: bool = False) -> List[Dict]:
        """SLO verdicts over the current indicators; canonical mode
        drops wall-clock rules so the list byte-stabilizes."""
        verdicts = evaluate(self.indicators(), self.slos)
        if canonical:
            verdicts = [v for v in verdicts if not v["wall_clock"]]
        return verdicts

    def anomalies(self) -> List[str]:
        """Deterministic, sorted pathology statements."""
        problems: List[str] = []
        for key in self.target_keys():
            record = self._targets.get(key) or {}
            if record and not record.get("up"):
                problems.append(f"target {key} unreachable")
        stale, _, by_group = self._staleness()
        if stale:
            for group in sorted(by_group):
                counts = by_group[group]
                if len(set(counts)) > 1:
                    problems.append(
                        f"replica divergence in {group}: object "
                        f"counts {sorted(counts)}")
        breaker_opens = self.client_stats.get("breaker_opens", 0)
        if breaker_opens:
            problems.append(
                f"client breakers opened {int(breaker_opens)}x")
        if self.reachability_flaps >= 2:
            problems.append(
                f"reachability flapping: {self.reachability_flaps} "
                f"up/down transition(s)")
        return problems

    # -- spans (trace export) ------------------------------------------------

    def span_entries(self) -> List[Dict]:
        """Every target's span records, tagged with the target key and
        deterministically ordered — the server lanes + flow arrows of
        :func:`repro.fleet.export.export_fleet_trace`."""
        entries = []
        for key in self.target_keys():
            for record in self._spans.get(key, []):
                entries.append(dict(record, target=key))
        entries.sort(key=lambda r: (r.get("target", ""),
                                    r.get("trace", ""),
                                    r.get("parent", ""),
                                    r.get("span", "")))
        return entries

    # -- snapshots -----------------------------------------------------------

    @staticmethod
    def _filter_series(snapshot: Dict, canonical: bool) -> Dict:
        if not canonical:
            return dict(snapshot)
        return {series: value for series, value in snapshot.items()
                if not series.startswith(WALL_CLOCK_SERIES)}

    def snapshot(self, canonical: bool = True) -> Dict:
        """The collector's whole view as one document.

        Canonical mode is byte-deterministic for a given fleet seed:
        no addresses, no wall-clock series or verdicts, no span
        buffers (their content is deterministic but their arrival
        order is not).  Non-canonical mode is the operator view —
        everything, including latency.
        """
        targets = {}
        for key in self.target_keys():
            record = self._targets.get(key)
            if record is None:
                continue
            entry = {
                "up": record["up"],
                "shard": record["shard"],
                "role": record["role"],
                "objects": record["objects"],
                "draining": record["draining"],
                "metrics": self._filter_series(record["metrics"],
                                               canonical),
                "deltas": self._filter_series(record["deltas"],
                                              canonical),
            }
            if not canonical:
                entry["address"] = self._addresses[key]
                entry["spans"] = len(self._spans.get(key, []))
            targets[key] = entry
        indicators = self.indicators()
        if canonical:
            indicators = {name: value
                          for name, value in indicators.items()
                          if name not in WALL_CLOCK_INDICATORS}
        doc = {
            "schema": SCHEMA,
            "scrapes": self.scrapes,
            "targets": targets,
            "merged": self._filter_series(self.merged_metrics(),
                                          canonical),
            "clients": {key: self.client_stats[key]
                        for key in sorted(self.client_stats)},
            "indicators": indicators,
            "slo": self.verdicts(canonical=canonical),
            "anomalies": self.anomalies(),
        }
        return doc
