"""ClusterRepository — the cluster-aware shared-cache client.

To the VM this is the same duck as every other repository (``load`` /
``save`` / ``manifest_entry_count``), but behind it sits a whole
cluster: the consistent-hash ring routes each content key to a shard
group, each group is a replica set fronted by one multi-endpoint
:class:`~repro.persist.remote.RemoteRepository` (per-endpoint circuit
breakers, failover ordering, bounded retry budgets), and every failure
walks the ladder

    replica → other replica → local cache → cold translation

without ever raising into the VM.  Concretely:

* **reads** pull each group's share of the manifest from the first
  healthy replica (stale answers are discarded and the next replica
  tried) and union the records by content key — a deterministic,
  sorted union, so any subset of healthy groups produces a prefix of
  the same warm-start set.  Pulls are *hedged* (docs/overload.md):
  once a group's own pow2 latency histogram has warmed up, the primary
  replica gets a single attempt bounded by a deterministic threshold
  (``max(hedge_floor, 2 x p99)``), and a slow or failed primary is
  abandoned in favor of a hedge request to the sibling replicas —
  first valid answer wins, counted in ``hedges``/``hedge_wins``.  The
  whole group pull (primary probe + hedge + stale failovers) spends
  one shared deadline budget;
* **writes** partition records by ring group and fan out to *every*
  replica of the group with ``merge=true`` pushes (the server unions
  manifest entries, so concurrent writers and repair passes compose),
  counting a quorum per group — a below-quorum write degrades to a
  counter, never an error, because anti-entropy re-replicates later
  and the worst case is cold translation;
* **total group failure** on either path falls back to the ``local``
  repository when one was given, else the group's records are simply
  absent and the VM translates those blocks cold.

Every rung is observable — :class:`ClusterStats` counters (merged into
``CoDesignedVM.stats()["remote"]``), ``cluster.*`` tracer events, and
the per-endpoint :meth:`ClusterRepository.health_view`.  Fault classes
in :mod:`repro.faults.classes` strike the ``cluster.route`` /
``cluster.pull`` sites here (and ``cluster.replica`` inside the
endpoint engine) so chaos runs can prove the whole ladder keeps
architected results byte-identical.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.cluster.topology import ClusterSpec
from repro.faults.plane import fault_point
from repro.obs.metrics import MetricsRegistry
from repro.persist.deadline import Deadline
from repro.persist.remote import (
    RemoteError,
    RemoteRepository,
    RemoteStats,
    pulled_records,
)
from repro.persist.repository import TranslationRepository

log = logging.getLogger("repro.cluster")

#: Samples a group's pull-latency histogram needs before the hedge
#: threshold trusts its p99.  Short-lived clients (one boot pulls each
#: group about once) never warm up and keep the plain un-hedged path,
#: so per-boot byte-determinism is untouched; long-lived clients start
#: hedging once they have real latency evidence.
HEDGE_MIN_SAMPLES = 8


@dataclass
class ClusterStats:
    """Cluster-tier degradation counters (the per-rung ladder view).

    These ride alongside the summed per-group :class:`RemoteStats` in
    ``to_dict`` snapshots; the fleet report's degradation section sums
    both, so a herd boot shows exactly which rung absorbed each
    failure.
    """

    pulls: int = 0
    pushes: int = 0
    records_routed: int = 0
    #: a group's read was answered by failing over past a stale reply
    stale_replicas: int = 0
    #: a whole shard group was unreachable for one request
    group_degradations: int = 0
    #: a degraded group's records came from the local repository
    local_fallbacks: int = 0
    #: a degraded group had no local fallback: cold translation
    cold_degradations: int = 0
    #: a replicated write acked by fewer replicas than the quorum
    quorum_misses: int = 0
    #: a replicated write acked by zero replicas of a group
    push_group_failures: int = 0
    #: hedge requests issued (primary slow/failed past the threshold)
    hedges: int = 0
    #: hedges whose sibling replica answered first (won the race)
    hedge_wins: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class _StatsView:
    """Merged counters with the RemoteStats ``to_dict``/``format``
    duck type (what ``CoDesignedVM.stats()['remote']`` consumes)."""

    def __init__(self, data: Dict[str, int]) -> None:
        self._data = data

    def to_dict(self) -> Dict[str, int]:
        return dict(self._data)

    def format(self) -> str:
        width = max(len(name) for name in self._data)
        return "\n".join(f"{name:<{width}}  {value}"
                         for name, value in self._data.items())


class ClusterRepository:
    """Translation repository sharded and replicated across a cluster.

    ``spec`` is anything :meth:`ClusterSpec.parse` accepts.  ``local``
    is the ladder's local-cache rung (a path or
    :class:`TranslationRepository`; optional).  ``quorum`` is the
    per-group write-ack target: ``"majority"`` (default), ``"all"``,
    or an int.  The remaining knobs are handed to each group's
    :class:`RemoteRepository` unchanged, so timeouts, deadline budgets,
    retry budgets, breaker thresholds and the injectable
    ``sleep``/``clock`` behave exactly like the single-server client.

    Hedging knobs (docs/overload.md): ``hedge_threshold`` pins the
    primary-probe latency bound in seconds; the default (None) derives
    it per group as ``max(hedge_floor, 2 x pull p99)`` from the
    client's own pow2 latency histogram once :data:`HEDGE_MIN_SAMPLES`
    pulls have been observed (before that, pulls run un-hedged).
    """

    def __init__(self, spec, local=None, quorum="majority",
                 timeout: float = 2.0, retries: int = 3,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 breaker_threshold: int = 4,
                 breaker_cooldown: float = 1.0,
                 tracer=None, sleep=time.sleep,
                 clock=time.monotonic,
                 request_budget: float = 8.0,
                 jitter_seed: int = 0,
                 hedge_threshold: Optional[float] = None,
                 hedge_floor: float = 0.05) -> None:
        self.spec = ClusterSpec.parse(spec)
        self.ring = self.spec.ring()
        if local is None or isinstance(local, TranslationRepository):
            self.local = local
        else:
            self.local = TranslationRepository(local)
        self.clients: Dict[str, RemoteRepository] = {
            group.name: RemoteRepository(
                list(group.replicas), local=None, timeout=timeout,
                retries=retries, backoff_base=backoff_base,
                backoff_cap=backoff_cap,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown, tracer=tracer,
                sleep=sleep, clock=clock, name=group.name,
                request_budget=request_budget,
                jitter_seed=jitter_seed)
            for group in self.spec.groups}
        self._quorum_policy = quorum
        self.tracer = tracer
        self.trace_ctx = None
        self.cluster_stats = ClusterStats()
        self._clock = clock
        self.request_budget = request_budget
        self.hedge_threshold = hedge_threshold
        self.hedge_floor = hedge_floor
        #: per-group pull-latency pow2 histograms feeding the hedge
        #: threshold (client-private; not part of canonical snapshots)
        self._latency = MetricsRegistry()
        #: aggregated server answer for the most recent successful push
        #: (same shape as RemoteRepository.last_push; the fleet engine
        #: reads dedup-amortization curves from this)
        self.last_push: Optional[Dict] = None

    # -- plumbing ------------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        self.tracer = tracer
        for client in self.clients.values():
            client.bind_tracer(tracer)

    def bind_trace_context(self, context) -> None:
        """Attach a distributed-tracing root: each shard group's client
        gets its own child lane (derived, not shared) so per-group
        request sequence numbers cannot collide into one span id."""
        self.trace_ctx = context
        for name in sorted(self.clients):
            self.clients[name].bind_trace_context(
                context.child(f"group:{name}"))

    def _trace(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    def close(self) -> None:
        for client in self.clients.values():
            client.close()

    def quorum_for(self, group: str) -> int:
        replicas = len(self.spec.group(group).replicas)
        if self._quorum_policy == "all":
            return replicas
        if self._quorum_policy == "majority":
            return replicas // 2 + 1
        return max(1, min(int(self._quorum_policy), replicas))

    def _group_names(self) -> List[str]:
        return sorted(self.clients)

    def _degrade(self, group: str, op: str, error: Exception) -> None:
        self.cluster_stats.group_degradations += 1
        target = "local" if self.local is not None else "cold"
        self._trace("cluster.degrade", group=group, op=op,
                    error=type(error).__name__, target=target)
        log.warning("shard group %s unavailable for %s (%s); "
                    "degrading to %s", group, op, error, target)

    # -- reads ---------------------------------------------------------------

    def _group_hedge_threshold(self, group: str) -> Optional[float]:
        """The group's primary-probe latency bound in seconds, or None
        while the histogram is still cold (un-hedged pulls).

        Deterministically derived: an explicit ``hedge_threshold``
        wins; otherwise ``max(hedge_floor, 2 x p99)`` of this client's
        own observed pull latencies for the group.
        """
        if self.hedge_threshold is not None:
            return self.hedge_threshold
        for series in self._latency:
            if series.name == "cluster_pull_ms" \
                    and series.labels.get("group") == group:
                if series.count >= HEDGE_MIN_SAMPLES:
                    return max(self.hedge_floor,
                               2.0 * series.percentile(99) / 1000.0)
                return None
        return None

    def _observe_pull(self, group: str, started: float) -> None:
        self._latency.histogram("cluster_pull_ms", group=group).observe(
            (self._clock() - started) * 1000.0)

    def _hedged_pull(self, group: str, payload: Dict,
                     deadline: Deadline) -> Dict:
        """One group fetch, hedged: the primary replica gets a single
        attempt bounded by the hedge threshold; past it (or on any
        primary failure, or under an injected ``overload.hedge``
        fault) the request is re-issued against the sibling replicas
        and the primary's in-flight answer is abandoned (its socket is
        already closed).  Everything spends the one ``deadline``.
        """
        client = self.clients[group]
        started = self._clock()
        siblings = client.endpoints[1:]
        if not siblings:
            # nobody to hedge to: the plain retry/failover engine
            response = client.request("pull", payload,
                                      deadline=deadline)
            self._observe_pull(group, started)
            return response
        threshold = self._group_hedge_threshold(group)
        forced = fault_point("overload.hedge", group=group, op="pull")
        if threshold is None and not forced:
            response = client.request("pull", payload,
                                      deadline=deadline)
            self._observe_pull(group, started)
            return response
        try:
            if forced:
                raise RemoteError("injected hedge trigger")
            response = client.request(
                "pull", payload, endpoints=[client.endpoints[0]],
                timeout_cap=threshold, deadline=deadline,
                max_attempts=1)
        except Exception as error:  # noqa: BLE001 - any primary-probe
            # failure (slow past the threshold included) hedges
            self.cluster_stats.hedges += 1
            self._trace("cluster.hedge", group=group,
                        threshold=threshold,
                        error=type(error).__name__)
            try:
                response = client.request("pull", payload,
                                          endpoints=siblings,
                                          deadline=deadline)
            except Exception as hedge_error:  # noqa: BLE001 - hedge
                # lost too; the full engine (primary included) is the
                # last resort
                log.debug("hedge to %s siblings lost: %s", group,
                          hedge_error)
                response = client.request("pull", payload,
                                          deadline=deadline)
            else:
                self.cluster_stats.hedge_wins += 1
                self._trace("cluster.hedge_win", group=group)
        self._observe_pull(group, started)
        return response

    def _pull_group(self, group: str, config_fp: str,
                    image_fp: str) -> List[Dict]:
        """One group's records, failing over past stale replies.

        The hedged first fetch and every stale-failover refetch spend
        one shared deadline budget (docs/overload.md) — a group that
        keeps answering stale cannot hold the boot past its deadline.
        """
        fault_point("cluster.route", group=group, op="pull")
        client = self.clients[group]
        payload = {"config_fp": config_fp, "image_fp": image_fp}
        deadline = Deadline.after(self.request_budget, self._clock)
        for fetch in range(len(client.endpoints)):
            if fetch == 0:
                response = self._hedged_pull(group, payload, deadline)
            else:
                response = client.request("pull", payload,
                                          deadline=deadline)
            if fault_point("cluster.pull", group=group, op="pull"):
                # a replica answered from a stale manifest: discard and
                # let the failover order try its siblings
                self.cluster_stats.stale_replicas += 1
                self._trace("cluster.failover", group=group,
                            reason="stale-replica")
                continue
            return pulled_records(response)
        raise RemoteError(f"every replica of {group} answered stale")

    def load(self, config_fp: str, image_fp: str) -> List[Dict]:
        """Union of every reachable group's records; never raises.

        Records are deduplicated by content key and returned in sorted
        key order, so the warm-start set is deterministic regardless of
        which replica of each group answered — and any degraded group
        just shrinks the set (local fallback refills it when a local
        repository exists).
        """
        self.cluster_stats.pulls += 1
        merged: Dict[str, Dict] = {}
        degraded = False
        for group in self._group_names():
            try:
                records = self._pull_group(group, config_fp, image_fp)
            except Exception as error:  # noqa: BLE001 - degrade ladder,
                # never raise into the VM
                self._degrade(group, "pull", error)
                degraded = True
                continue
            for record in records:
                merged.setdefault(record["key"], record)
        if degraded:
            if self.local is not None:
                self.cluster_stats.local_fallbacks += 1
                for record in self.local.load(config_fp, image_fp):
                    merged.setdefault(record["key"], record)
            else:
                self.cluster_stats.cold_degradations += 1
        return [merged[key] for key in sorted(merged)]

    def manifest_entry_count(self, config_fp: str,
                             image_fp: str) -> Optional[int]:
        """Sum of per-group manifest entries, or the local count, or
        None when nothing answers; never raises."""
        total = 0
        answered = False
        for group in self._group_names():
            try:
                fault_point("cluster.route", group=group, op="manifest")
                response = self.clients[group].request(
                    "manifest", {"config_fp": config_fp,
                                 "image_fp": image_fp})
            except Exception as error:  # noqa: BLE001 - degrade ladder,
                # never raise into the VM
                self._degrade(group, "manifest", error)
                continue
            entries = response.get("entries")
            if isinstance(entries, int):
                total += entries
                answered = True
        if answered:
            return total
        if self.local is not None:
            return self.local.manifest_entry_count(config_fp, image_fp)
        return None

    # -- writes --------------------------------------------------------------

    def save(self, records: List[Dict], config_fp: str, image_fp: str,
             config_name: str = "") -> int:
        """Replicated, sharded push with quorum accounting; never raises.

        Records partition by ring group; each group's share fans out to
        all of its replicas as a ``merge=true`` push.  Per group: zero
        acks degrades to the local repository (when present) and counts
        ``push_group_failures``; acks below the quorum count
        ``quorum_misses`` (anti-entropy heals the lag).  Returns the
        number of records newly written to the cluster (max across the
        acking replicas, summed over groups).
        """
        valid = [r for r in records if r is not None]
        self.cluster_stats.pushes += 1
        self.cluster_stats.records_routed += len(valid)
        by_group: Dict[str, List[Dict]] = {}
        for record in valid:
            by_group.setdefault(
                self.ring.group_for(record["key"]), []).append(record)
        total_written = 0
        push_summary = {"written": 0, "deduped": 0, "rejected": 0}
        any_ack = False
        for group in sorted(by_group):
            share = by_group[group]
            payload = {"records": share, "config_fp": config_fp,
                       "image_fp": image_fp,
                       "config_name": config_name, "merge": True}
            try:
                fault_point("cluster.route", group=group, op="push")
                responses = self.clients[group].fan_out("push", payload)
            except Exception as error:  # noqa: BLE001 - degrade ladder,
                # never raise into the VM
                self._degrade(group, "push", error)
                responses = []
            acks = [r for r in responses if isinstance(r, dict)]
            quorum = self.quorum_for(group)
            self._trace("cluster.quorum", group=group,
                        acks=len(acks), quorum=quorum,
                        replicas=len(self.clients[group].endpoints),
                        records=len(share))
            if not acks:
                self.cluster_stats.push_group_failures += 1
                if self.local is not None:
                    self.cluster_stats.local_fallbacks += 1
                    total_written += self.local.save(
                        share, config_fp, image_fp,
                        config_name=config_name, merge=True)
                else:
                    self.cluster_stats.cold_degradations += 1
                continue
            if len(acks) < quorum:
                self.cluster_stats.quorum_misses += 1
            any_ack = True
            # the freshest replica's answer describes what this push
            # added to the cluster; laggards re-writing old objects
            # would overstate it
            total_written += max(
                a.get("written", 0) if isinstance(a.get("written"), int)
                else 0 for a in acks)
            first = acks[0]
            for field in push_summary:
                value = first.get(field)
                if isinstance(value, int):
                    push_summary[field] += value
        self.last_push = push_summary if any_ack else None
        return total_written

    # -- observability -------------------------------------------------------

    @property
    def remote_stats(self) -> _StatsView:
        """Summed per-group client counters + the cluster-tier ladder
        counters, as one flat snapshot (``stats()['remote']``)."""
        merged = RemoteStats()
        for client in self.clients.values():
            for name, value in client.remote_stats.to_dict().items():
                setattr(merged, name, getattr(merged, name) + value)
        data = merged.to_dict()
        data.update(self.cluster_stats.to_dict())
        return _StatsView(data)

    def stats(self) -> _StatsView:
        return self.remote_stats

    def health_view(self) -> Dict[str, List[Dict]]:
        """Per-group, per-endpoint health (breakers + server answers)."""
        return {group: self.clients[group].endpoint_health()
                for group in self._group_names()}

    def ping(self) -> bool:
        """True when every shard group has at least one live replica."""
        return all(self.clients[group].ping()
                   for group in self._group_names())
