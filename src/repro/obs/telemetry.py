"""Wire-propagated trace context, server span capture and exact
metric merging — the building blocks of the distributed observability
plane (docs/observability.md, "Distributed tracing & monitoring").

Three pieces live here because they share one contract: everything is
a pure function of simulated state — ids are derived by hashing,
timestamps are the client's simulated-cycle clock, and nothing reads
a wall clock or an RNG — so the same fleet seed yields byte-identical
telemetry on every host.

* :class:`TraceContext` — the deterministic (trace id, span id, boot
  rank) triple clients stamp into every protocol frame as
  ``trace_ctx``.  A remote client derives one child per request, the
  server opens its own child span under that, and the two halves meet
  again in :func:`repro.fleet.export.export_fleet_trace` as Perfetto
  flow arrows.
* :class:`SpanBuffer` — the server-side bounded buffer of child spans
  opened under a propagated context.  The context manager guarantees
  spans close on every path (exceptions mark them ``error``), and
  names are restricted to EVENT_TYPES slice entries; reprolint's
  OBS003 enforces both properties at call sites.
* exact pow2-histogram merging — re-merging per-replica
  :class:`~repro.obs.metrics.Histogram` snapshots into fleet-wide
  distributions without losing an observation: buckets are summed
  bound-by-bound, so :func:`histogram_percentile` over the merge
  answers exactly what one histogram observing everything would.

The wire ``telemetry`` op (docs/cache_server.md) carries all of it:
:func:`telemetry_request` builds the request payload, the server
answers with its metrics-registry snapshot plus this buffer, and
:class:`repro.obs.collector.ClusterCollector` does the merging.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import bucket_percentile
from repro.obs.tracer import EVENT_TYPES

#: Version stamped into every ``trace_ctx`` payload and ``telemetry``
#: request; servers reject frames from a future protocol rather than
#: misinterpreting them.
TELEMETRY_VERSION = 1

#: Default cap on span records a server keeps (oldest evicted first).
SPAN_BUFFER_CAPACITY = 1024

#: Default cap on span records returned by one ``telemetry`` answer.
DEFAULT_MAX_SPANS = 256


def derive_span_id(trace_id: str, parent: str, seq) -> str:
    """A span id is a pure hash of (trace, parent span, sequence) —
    no clock, no RNG, so retries and reruns derive the same id."""
    text = f"{trace_id}:{parent}:{seq}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace, small enough to ride in every
    protocol frame.  ``ts`` is the *client's* simulated-cycle clock at
    stamping time; servers have no simulated clock of their own, so
    their child spans inherit it."""

    trace_id: str
    span_id: str
    boot_rank: int = 0
    ts: float = 0.0

    @classmethod
    def for_boot(cls, instance_seed: int, rank: int,
                 lane: str = "boot") -> "TraceContext":
        """The root context for one fleet instance.  The trace id
        depends only on (seed, rank) so an instance's boot lane and
        the engine's publish lane (``lane="publish"``) share a trace
        while their root spans stay distinct."""
        text = f"fleet:{int(instance_seed)}:{int(rank)}"
        trace_id = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        return cls(trace_id, derive_span_id(trace_id, lane, 0),
                   int(rank))

    def child(self, seq, ts: float = 0.0) -> "TraceContext":
        """Derive the context for one request (or sub-lane): same
        trace, new span parented under this one."""
        return TraceContext(
            self.trace_id,
            derive_span_id(self.trace_id, self.span_id, seq),
            self.boot_rank, float(ts))

    def to_wire(self) -> Dict:
        return {"v": TELEMETRY_VERSION, "trace": self.trace_id,
                "span": self.span_id, "rank": self.boot_rank,
                "ts": self.ts}

    @classmethod
    def from_wire(cls, payload) -> Optional["TraceContext"]:
        """Parse a ``trace_ctx`` frame field; ``None`` for anything
        malformed or from an unknown version (the request still runs,
        it just goes untraced — tracing must never break serving)."""
        if not isinstance(payload, dict):
            return None
        if payload.get("v") != TELEMETRY_VERSION:
            return None
        trace, span = payload.get("trace"), payload.get("span")
        rank, ts = payload.get("rank", 0), payload.get("ts", 0.0)
        if not isinstance(trace, str) or not isinstance(span, str):
            return None
        if isinstance(rank, bool) or not isinstance(rank, int):
            return None
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            return None
        return cls(trace, span, rank, float(ts))


class SpanBuffer:
    """Bounded, thread-safe buffer of server-side span records.

    :meth:`span` is the only way in: a context manager that closes the
    span on every path — normal exit records ``status="ok"``, an
    exception records ``status="error"`` and re-raises — and rejects
    names outside the EVENT_TYPES slice taxonomy, so a leaked or
    mis-named server span is impossible by construction (and OBS003
    lints the call sites to keep it that way)."""

    def __init__(self, capacity: int = SPAN_BUFFER_CAPACITY,
                 event_types: Optional[Dict[str, str]] = None) -> None:
        self.capacity = max(1, int(capacity))
        self._event_types = (EVENT_TYPES if event_types is None
                             else event_types)
        self._lock = threading.Lock()
        self._entries: deque = deque()
        self.opened = 0
        self.dropped = 0

    @contextmanager
    def span(self, name: str, context: TraceContext, **args):
        """Open a child span under ``context``; yields the mutable
        record so the handler can annotate it (e.g. flip ``status``)."""
        if self._event_types.get(name) != "X":
            raise ValueError(
                f"span name {name!r} is not an EVENT_TYPES slice; "
                f"register it in repro.obs.tracer first")
        record = {
            "name": name,
            "trace": context.trace_id,
            "parent": context.span_id,
            "span": derive_span_id(context.trace_id, context.span_id,
                                   "server"),
            "rank": context.boot_rank,
            "ts": context.ts,
            "status": "ok",
        }
        for key in sorted(args):
            record[key] = args[key]
        try:
            yield record
        except BaseException:
            record["status"] = "error"
            raise
        finally:
            with self._lock:
                self.opened += 1
                if len(self._entries) >= self.capacity:
                    self._entries.popleft()
                    self.dropped += 1
                self._entries.append(record)

    def entries(self, limit: Optional[int] = None
                ) -> Tuple[List[Dict], int]:
        """The newest ``limit`` records plus how many older ones the
        cap cut off (0 when everything fit)."""
        with self._lock:
            records = list(self._entries)
        if limit is None:
            return records, 0
        limit = max(0, int(limit))
        if limit >= len(records):
            return records, 0
        return records[len(records) - limit:], len(records) - limit

    def to_wire(self, max_spans: Optional[int] = None) -> Dict:
        """The ``spans`` section of a ``telemetry`` answer."""
        entries, truncated = self.entries(max_spans)
        with self._lock:
            opened, dropped = self.opened, self.dropped
        return {"capacity": self.capacity, "opened": opened,
                "dropped": dropped, "truncated": truncated,
                "entries": entries}


def telemetry_request(max_spans: int = DEFAULT_MAX_SPANS) -> Dict:
    """Payload for the wire ``telemetry`` op (the transport adds the
    ``op`` key itself)."""
    return {"v": TELEMETRY_VERSION, "max_spans": int(max_spans)}


# --------------------------------------------------------------------
# Exact snapshot merging.  A Histogram snapshot is
# {count, total, min, max, mean, buckets: {bound: n}}; over JSON the
# bucket bounds arrive as strings, so every reader normalizes.


def is_histogram_snapshot(value) -> bool:
    return isinstance(value, dict) and "buckets" in value


def _empty_histogram() -> Dict:
    return {"count": 0, "total": 0.0, "min": None, "max": None,
            "mean": 0.0, "buckets": {}}


def merge_histogram(snapshots: Iterable[Dict]) -> Dict:
    """Merge pow2-histogram snapshots exactly: buckets sum bound by
    bound, so the merge is indistinguishable from one histogram that
    observed every sample itself."""
    buckets: Dict[int, int] = {}
    count, total = 0, 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None
    for snapshot in snapshots:
        if not snapshot or not snapshot.get("count"):
            continue
        count += int(snapshot["count"])
        total += float(snapshot.get("total", 0.0))
        s_min, s_max = snapshot.get("min"), snapshot.get("max")
        if s_min is not None:
            lo = s_min if lo is None else min(lo, s_min)
        if s_max is not None:
            hi = s_max if hi is None else max(hi, s_max)
        for bound, n in snapshot.get("buckets", {}).items():
            bound = int(bound)
            buckets[bound] = buckets.get(bound, 0) + int(n)
    if not count:
        return _empty_histogram()
    return {"count": count, "total": total, "min": lo, "max": hi,
            "mean": total / count,
            "buckets": {bound: buckets[bound]
                        for bound in sorted(buckets)}}


def histogram_percentile(snapshot: Dict, q: float) -> Optional[float]:
    """:func:`repro.obs.metrics.bucket_percentile` over a (possibly
    merged, possibly JSON-round-tripped) snapshot."""
    buckets = {int(bound): int(n)
               for bound, n in snapshot.get("buckets", {}).items()}
    return bucket_percentile(int(snapshot.get("count") or 0), buckets,
                             snapshot.get("min"), snapshot.get("max"), q)


def merge_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Merge whole metrics-registry snapshots (flat series → value):
    numeric series sum, histogram series merge exactly."""
    merged: Dict = {}
    histograms: Dict[str, List[Dict]] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for series, value in snapshot.items():
            if is_histogram_snapshot(value):
                histograms.setdefault(series, []).append(value)
            else:
                merged[series] = merged.get(series, 0) + value
    for series, parts in histograms.items():
        merged[series] = merge_histogram(parts)
    return {series: merged[series] for series in sorted(merged)}


def counter_deltas(current: Dict, previous: Dict) -> Dict:
    """Per-scrape deltas of the numeric series (histograms and new
    gauges ride as-is through the merged snapshot; a reset — e.g. a
    replica restart — clamps at zero rather than going negative)."""
    deltas: Dict = {}
    for series, value in current.items():
        if is_histogram_snapshot(value):
            continue
        before = previous.get(series, 0)
        if is_histogram_snapshot(before):
            before = 0
        deltas[series] = max(0, value - before)
    return {series: deltas[series] for series in sorted(deltas)}
