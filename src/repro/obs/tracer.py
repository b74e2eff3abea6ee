"""Typed lifecycle event tracer + bounded flight recorder.

The tracer records *what the translation stack did and when*, on the
simulated-cycle clock: block first-executions, BBT/SBT translations
(start + finish, with instruction counts), hotspot promotions, chains
made and broken, cache flushes/evictions, warm-start loads and rejects,
quarantine actions, integrity-sweep hits.  Event names are drawn from
:data:`EVENT_TYPES`; unknown names are rejected at emit time so the
taxonomy in ``docs/observability.md`` cannot silently rot.

Determinism contract: timestamps come from a caller-supplied clock
(the :class:`~repro.obs.ledger.CycleLedger`'s cycle total in practice)
plus a per-tracer sequence number — never the wall clock — so the same
workload and seed produce a byte-identical exported stream.

Cost contract: the tracer is only constructed when ``trace=True``; all
hot-path hooks in the runtime are guarded by ``if tracer is not None``
so a non-traced run pays a single pointer test per hook site (the
``trace-overhead`` drill of ``tools/drills.py`` measures this).

The **flight recorder** is the same stream viewed through a bounded
ring: the last ``flight_capacity`` events are always retained even
when full-stream retention is off (``keep_events=False``), and
:meth:`EventTracer.flight_dump` snapshots them together with the
faulting pc/mode/dispatch context.  ``VMRuntimeError`` raise sites and
the chaos harness attach these dumps, turning fault reports into
replayable forensic traces.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

log = logging.getLogger("repro.obs")

#: The event taxonomy.  Maps event name -> Perfetto phase type:
#: ``"X"`` events are complete slices (have a duration), ``"i"`` events
#: are instants.  ``docs/observability.md`` documents each.
EVENT_TYPES: Dict[str, str] = {
    # lifecycle of a guest block
    "block.first_exec": "i",
    "translate.bbt": "X",
    "translate.sbt": "X",
    "hotspot.promote": "i",
    "hotspot.misfire": "i",
    # translation-directory linkage
    "chain.made": "i",
    "chain.broken": "i",
    # code-cache management
    "cache.flush": "i",
    "cache.evict": "i",
    # persistence plane
    "warmstart.load": "i",
    "warmstart.reject": "i",
    "warmstart.done": "i",
    # robustness plane
    "fault.translation": "i",
    "quarantine.add": "i",
    "quarantine.degrade": "i",
    "integrity.hit": "i",
    "integrity.sweep": "i",
    # shared-cache client (RemoteRepository)
    "remote.request": "i",
    "remote.retry": "i",
    "remote.fallback": "i",
    "remote.breaker_open": "i",
    "remote.breaker_close": "i",
    # overload-protection plane (docs/overload.md): client-side
    # decisions — a shed answer honored, a deadline budget spent (or a
    # late response dropped), a retry token bucket running dry
    "remote.shed": "i",
    "remote.deadline": "i",
    "remote.budget_exhausted": "i",
    # distributed tracing (repro.obs.telemetry): client-side request
    # slices stamped with the propagated trace context, and the
    # server-side child span opened under it
    "remote.pull": "X",
    "remote.push": "X",
    "remote.op": "X",
    "server.op": "X",
    # cluster tier (repro.cluster): the degradation ladder made
    # visible — replica failovers, per-group degradations, write
    # quorum accounting
    "cluster.failover": "i",
    "cluster.degrade": "i",
    "cluster.quorum": "i",
    # hedged reads: the primary probe abandoned past its threshold,
    # and the sibling replica's answer winning the race
    "cluster.hedge": "i",
    "cluster.hedge_win": "i",
    # run envelope
    "run.begin": "i",
    "run.end": "i",
    "recorder.dump": "i",
    # fleet harness (repro.fleet): per-instance boot slices on the
    # fleet summary track plus steady-state markers
    "fleet.boot": "X",
    "fleet.steady": "i",
}

#: Perfetto track (tid) per event family — keeps the viewer lanes tidy.
_TRACKS = {
    "translate": 1,
    "chain": 2,
    "cache": 3,
    "warmstart": 4,
    "fault": 5,
    "quarantine": 5,
    "integrity": 5,
    "hotspot": 6,
    "block": 7,
    "remote": 8,
    "server": 9,
    "fleet": 10,
    "cluster": 11,
}
_DEFAULT_TRACK = 0


def event_track(name: str) -> int:
    return _TRACKS.get(name.split(".", 1)[0], _DEFAULT_TRACK)


@dataclass
class TraceEvent:
    """One tracer event, already normalized for export."""

    seq: int                 # per-tracer emission index (tie-breaker)
    name: str                # key into EVENT_TYPES
    ts: float                # sim-cycle timestamp (monotone)
    dur: float = 0.0         # sim-cycle duration ("X" events only)
    args: Dict = field(default_factory=dict)

    @property
    def phase(self) -> str:
        return EVENT_TYPES[self.name]

    def to_trace_event(self) -> Dict:
        """Render as one Chrome ``trace_event`` entry."""
        entry: Dict = {
            "name": self.name,
            "ph": self.phase,
            "ts": self.ts,
            "pid": 1,
            "tid": event_track(self.name),
            "args": dict(sorted(self.args.items())),
        }
        if self.phase == "X":
            entry["dur"] = self.dur
        else:
            entry["s"] = "t"     # instant scoped to its track
        return entry


class EventTracer:
    """Deterministic event stream + flight-recorder ring.

    ``clock`` is any zero-arg callable returning the current simulated
    cycle; the runtime passes ``lambda: ledger.total``.  ``keep_events``
    controls full-stream retention (the flight ring is always kept).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 keep_events: bool = True,
                 flight_capacity: int = 256) -> None:
        self._clock = clock or (lambda: 0.0)
        self._seq = 0
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.flight: Deque[TraceEvent] = deque(maxlen=flight_capacity)
        self.dropped = 0

    def now(self) -> float:
        return self._clock()

    # -- emission ------------------------------------------------------------

    def _emit(self, event: TraceEvent) -> TraceEvent:
        if self.keep_events:
            self.events.append(event)
        else:
            self.dropped += 1
        self.flight.append(event)
        return event

    def instant(self, name: str, **args) -> TraceEvent:
        """Emit an instant ("i") event at the current sim cycle."""
        if EVENT_TYPES.get(name) != "i":
            raise ValueError(f"unknown or non-instant event {name!r}")
        self._seq += 1
        return self._emit(TraceEvent(seq=self._seq, name=name,
                                     ts=self._clock(), args=args))

    def complete(self, name: str, start: float, **args) -> TraceEvent:
        """Emit a complete ("X") slice from ``start`` to now."""
        if EVENT_TYPES.get(name) != "X":
            raise ValueError(f"unknown or non-slice event {name!r}")
        self._seq += 1
        now = self._clock()
        return self._emit(TraceEvent(seq=self._seq, name=name, ts=start,
                                     dur=max(0.0, now - start), args=args))

    # -- flight recorder -----------------------------------------------------

    def flight_dump(self, reason: str, **context) -> Dict:
        """Snapshot the ring + fault context (attached to errors)."""
        dump = {
            "reason": reason,
            "context": dict(sorted(context.items())),
            "cycle": self._clock(),
            "events_emitted": self._seq,
            "events": [event.to_trace_event() for event in self.flight],
        }
        self.instant("recorder.dump", reason=reason)
        log.debug("flight recorder dumped: %s (%d events)",
                  reason, len(dump["events"]))
        return dump

    def __len__(self) -> int:
        return len(self.events)
