"""The metrics registry — labeled series for the wire and for fleets.

A :class:`MetricsRegistry` is what the cache server ships in its wire
``telemetry`` snapshot (per-op request counters, per-op latency
histograms), and its pow2 :class:`Histogram` is the percentile
machinery of fleet reports and the cluster collector.  VM counters are
not series: they are plain attributes, reported by
``VMRuntime.stats()`` and ``ExecutionReport``.

Three series kinds:

* :class:`Counter` — monotone event count (``inc``);
* :class:`Gauge`  — point-in-time level (``set``);
* :class:`Histogram` — power-of-two bucketed distribution
  (``observe``), used for latencies.

Registry snapshots are plain dicts keyed ``name`` or
``name{label=value,...}`` and support :meth:`MetricsRegistry.diff` for
before/after comparisons.  Everything here is deterministic.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, Iterator, Optional, Tuple

log = logging.getLogger("repro.obs")


def series_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}"
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Series:
    """Common identity for one labeled time series."""

    kind = "series"
    __slots__ = ("name", "labels", "key")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.key = series_key(name, labels)


class Counter(Series):
    """Monotone counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge(Series):
    """Point-in-time level."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Histogram(Series):
    """Power-of-two bucketed distribution of observed values."""

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket upper bound (power of two) -> observation count
        self.buckets: Dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bound = 1
        while bound < value:
            bound <<= 1
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile estimate (:func:`bucket_percentile`)."""
        return bucket_percentile(self.count, self.buckets, self.min,
                                 self.max, q)

    def snapshot(self) -> Dict:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "buckets": dict(sorted(self.buckets.items()))}


def bucket_percentile(count: int, buckets: Dict[int, int], lo, hi,
                      q: float) -> Optional[float]:
    """Deterministic q-th percentile estimate from pow2 buckets.

    Walks the cumulative bucket counts and returns the upper bound of
    the bucket containing the q-th observation, clamped to the recorded
    max ``hi`` (so p99 never overshoots the data) and floored at the
    recorded min ``lo``.  Monotone in ``q`` by construction — the fleet
    report's p50 <= p95 <= p99 invariant rests on this.  Returns
    ``None`` for an empty histogram.
    """
    if not count:
        return None
    target = max(1, math.ceil(count * q / 100.0))
    seen = 0
    for bound in sorted(buckets):
        seen += buckets[bound]
        if seen >= target:
            return float(min(max(bound, lo), hi))
    return float(hi)        # pragma: no cover - bucket invariant


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create registry of labeled series."""

    def __init__(self) -> None:
        self._series: Dict[Tuple, Series] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, str]) -> Series:
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            series = _KINDS[kind](name, labels)
            self._series[key] = series
        elif series.kind != kind:
            raise TypeError(f"series {series.key!r} is a {series.kind}, "
                            f"not a {kind}")
        return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    def __iter__(self) -> Iterator[Series]:
        return iter(sorted(self._series.values(),
                           key=lambda series: series.key))

    def __len__(self) -> int:
        return len(self._series)

    def value(self, name: str, **labels):
        """Current value of a series, or None if it does not exist."""
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            return None
        return series.snapshot()

    def snapshot(self) -> Dict[str, object]:
        """Flat ``{series_key: value}`` dict (histograms nest a dict)."""
        return {series.key: series.snapshot() for series in self}

    def diff(self, before: Dict[str, object]) -> Dict[str, object]:
        """Numeric series that changed since ``before`` (a snapshot).

        Returns ``{series_key: delta}``; histogram series are compared
        by observation count.  Series absent from ``before`` diff
        against zero.
        """
        deltas: Dict[str, object] = {}
        for key, value in self.snapshot().items():
            old = before.get(key, 0)
            if isinstance(value, dict):          # histogram
                value = value["count"]
                old = old["count"] if isinstance(old, dict) else old
            if value != old:
                deltas[key] = value - old
        return deltas
