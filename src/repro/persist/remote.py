"""The wire repository — one fault-tolerant shared-cache client.

To the VM :class:`RemoteRepository` is just another repository
(``load`` / ``fetch`` / ``save``), but it fronts
:class:`~repro.cacheserver.server.CacheServer` processes over sockets:
shard groups routed by the consistent-hash ring, each group a replica
set served by one :class:`ReplicaSet` request engine.  A single server
is the one-group, one-replica case of the same class
(``repro.cluster.ClusterRepository`` is this class under its cluster
name), and the network is allowed to do its worst.  The contract
mirrors the rest of the translation stack: the shared cache is an
*optimization*, so **no server failure may change architected results
or kill the run** — every failure walks one ladder

    replica → sibling replica → local repository → cold translation

without ever raising into the VM.  ``docs/cache_server.md`` ("The
request path") lists the engine's steps in order, each with its one
counter, tracer event and fault site; what the steps protect:

* **deadline propagation** — every logical request opens one
  :class:`~repro.persist.deadline.Deadline` (``request_budget``
  seconds) that all attempts, retries, hedges and failovers spend
  from; each attempt's socket timeout is ``min(timeout, remaining
  budget)`` and the remaining budget rides the frame as
  ``deadline_ms`` so servers can refuse already-dead work.  A response
  arriving after its own deadline is *dropped* (``late_responses``) —
  no caller ever consumes a result past its budget;
* **bounded retries** — transient failures (refused connection, torn
  frame, timeout, ``lease-busy``, ``overloaded``, a stale replica) are
  retried up to ``retries`` times with exponential backoff and
  *deterministic* jitter (hashed from the jitter seed, the endpoint
  address and the request identity, never the wall clock or a global
  RNG, so tests and chaos runs replay exactly and concurrent clients
  never sync into lockstep retry waves); a shedding server's
  ``retry_after`` hint raises the wait floor;
* **retry budgets** — retries additionally spend from a
  :class:`~repro.persist.deadline.RetryBudget` token bucket that only
  successes refill, so a down shard produces bounded amplification
  instead of a retry storm; a dry bucket ends the request at once;
* **replica failover** — attempts rotate across the group's replicas
  in declared order, healthy endpoints first, so one dead replica
  costs one attempt, not the whole request;
* **hedged reads** — once a group's own pull latencies have warmed up
  (or ``hedge_threshold`` pins the bound), a pull's first attempt on
  the primary is capped at the threshold and a slow or failed primary
  is abandoned for its siblings without waiting out a backoff
  (``hedges`` / ``hedge_wins``);
* **checksum screening** — frames carry a CRC over the payload; a
  corrupt payload is dropped at the codec, counted, and retried like
  any transient failure;
* **per-endpoint circuit breakers** — after ``breaker_threshold``
  consecutive request failures *on that endpoint* its breaker opens
  and the endpoint drops out of the failover order for
  ``breaker_cooldown`` seconds (then one half-open probe is let
  through, closing it on success).  Breakers are independent, so a
  dead replica can never blacklist its healthy siblings;
* **quorum accounting** — writes fan out to every replica of a group
  as ``merge=true`` pushes (the server unions manifest entries, so
  concurrent writers and repair passes compose); acks below the
  majority count ``quorum_misses``, never an error, because
  anti-entropy re-replicates later and the worst case is cold
  translation.

Every decision is observable: the one flat :class:`RemoteStats` record
(``CoDesignedVM.stats()["remote"]``), ``remote.*`` / ``cluster.*``
events in a bound tracer, the per-endpoint
:meth:`RemoteRepository.health_view`, and a flight-recorder dump
(:attr:`RemoteRepository.last_flight`) snapshotting the events leading
up to each fallback.
"""

from __future__ import annotations

import logging
import socket
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cacheserver import protocol
from repro.faults.plane import fault_point
from repro.obs.metrics import Histogram
from repro.persist.deadline import Deadline, RetryBudget
from repro.persist.format import Record
from repro.persist.repository import TranslationRepository, parse_object

log = logging.getLogger("repro.persist.remote")

#: Client-side span name per wire op (EVENT_TYPES slices); ops without
#: a dedicated lane share the generic ``remote.op`` slice.
_SPAN_NAMES = {"pull": "remote.pull", "push": "remote.push"}

#: Samples a group's pull-latency histogram needs before the hedge
#: threshold trusts its p99.  Short-lived clients (one boot pulls each
#: group about once) never warm up and keep the plain un-hedged path,
#: so per-boot byte-determinism is untouched; long-lived clients start
#: hedging once they have real latency evidence.
HEDGE_MIN_SAMPLES = 8

#: Lower bound in seconds of a derived hedge threshold (2 x pull p99).
HEDGE_FLOOR = 0.05


class RemoteError(Exception):
    """A request failed for good (non-retryable or retries exhausted)."""


class RemoteUnavailable(RemoteError):
    """Transport-level failure after exhausting the retry budget."""


class RemoteRejected(RemoteError):
    """The server indicted the *request* (``bad-request`` /
    ``deadline-exceeded``): fail fast, no retry, and — unlike server
    faults — no circuit-breaker penalty and no dropped connection,
    because the endpoint is healthy."""


def pulled_records(response: Dict) -> List[Record]:
    """The records of a ``pull`` response: each object the server
    shipped as stored, parsed.  One that is not a JSON object stored
    under its manifest key is dropped here (it shows as a missing
    object); everything else is the loader's to judge."""
    entries, objects = response.get("entries"), response.get("objects")
    if not isinstance(entries, list) or not isinstance(objects, list) \
            or len(entries) != len(objects):
        raise RemoteError("pull response carried no object list")
    return [record for record in map(parse_object, entries, objects)
            if record is not None]


def parse_address(address) -> Tuple[str, object]:
    """``unix:<path>`` / ``/abs/path`` / ``host:port`` / ``(host, port)``.

    Returns ``("unix", path)`` or ``("tcp", (host, port))``.
    """
    if isinstance(address, tuple):
        host, port = address
        return "tcp", (host, int(port))
    if not isinstance(address, str) or not address:
        raise ValueError(f"unusable server address {address!r}")
    if address.startswith("unix:"):
        return "unix", address[len("unix:"):]
    if address.startswith("/"):
        return "unix", address
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"unusable server address {address!r} "
            f"(want unix:<path>, /abs/path or host:port)")
    return "tcp", (host or "127.0.0.1", int(port))


def as_spec(target):
    """Coerce what a client was pointed at into a cluster spec.

    One server address, or a list of them (a replica set), is the
    one-group cluster ``shard0=<addresses>``; everything else is
    :meth:`ClusterSpec.parse`'s.  A bare ``(host, port)`` 2-tuple is
    one address, not two.
    """
    # imported here: repro.cluster's package init imports this module
    from repro.cluster.topology import ClusterSpec, ShardGroup
    if isinstance(target, (ClusterSpec, dict)) or (
            isinstance(target, str) and "=" in target
            and not target.startswith(("unix:", "/"))):
        return ClusterSpec.parse(target)
    if not isinstance(target, (list, tuple)) or (
            len(target) == 2 and isinstance(target[1], int)):
        target = [target]
    # spell pairs as host:port so the spec's string form round-trips
    replicas = tuple("%s:%d" % address if isinstance(address, tuple)
                     else address for address in target)
    return ClusterSpec(groups=(ShardGroup("shard0", replicas),))


@dataclass
class RemoteStats:
    """Client-side counters — the observable shape of every degradation.

    One flat record per client, shared by every group's engine, so a
    herd boot shows exactly which step of the request path, and which
    rung of the ladder, absorbed each failure."""

    requests: int = 0
    successes: int = 0
    retries: int = 0
    timeouts: int = 0
    conn_errors: int = 0
    protocol_errors: int = 0
    lease_busy: int = 0
    #: ``internal`` answers: the server's handler failed
    server_errors: int = 0
    breaker_opens: int = 0
    breaker_short_circuits: int = 0
    #: repository calls that walked the local → cold rung
    fallbacks: int = 0
    #: requests served by a non-primary endpoint (replica failover)
    failovers: int = 0
    records_pulled: int = 0
    records_pushed: int = 0
    #: ``overloaded`` answers honored (server shed us; docs/overload.md)
    sheds: int = 0
    #: requests abandoned because their deadline budget ran out
    deadline_exceeded: int = 0
    #: requests abandoned because the retry token bucket ran dry
    budget_exhausted: int = 0
    #: responses received intact but *after* the deadline — dropped,
    #: never surfaced to a caller
    late_responses: int = 0
    #: fail-fast rejections (``bad-request``/``deadline-exceeded``)
    #: that burned no retries and no breaker state
    rejected_fast: int = 0
    #: repository-level ``load`` / ``save`` calls
    pulls: int = 0
    pushes: int = 0
    #: a pull answer discarded as stale; the next replica was tried
    stale_replicas: int = 0
    #: a whole shard group was unreachable for one request
    group_degradations: int = 0
    #: a degraded call's records came from / went to the local repository
    local_fallbacks: int = 0
    #: a degraded call had no local repository: cold translation
    cold_degradations: int = 0
    #: a replicated write acked by fewer replicas than the quorum
    quorum_misses: int = 0
    #: a replicated write acked by zero replicas of a group
    push_group_failures: int = 0
    #: hedges issued (primary slow or failed past the threshold)
    hedges: int = 0
    #: hedges a sibling replica answered
    hedge_wins: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown-then-probe reopen."""

    def __init__(self, threshold: int = 4, cooldown: float = 1.0,
                 clock=time.monotonic) -> None:
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self._clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def allows(self) -> bool:
        """Whether a request may hit the network right now.  On a
        cooled-down open breaker a True answer *is* the half-open
        probe: ask only for the endpoint about to be tried, and settle
        it with ``record_success`` / ``record_failure`` / ``release``."""
        if self.opened_at is None:
            return True
        if self._clock() - self.opened_at < self.cooldown:
            return False
        # cooled down: let exactly one probe through (half-open)
        if self._probing:
            return False
        self._probing = True
        return True

    def release(self) -> None:
        """Hand back a granted probe that produced no verdict (the
        request ended on its budget, not on this endpoint), so the next
        request may probe again."""
        self._probing = False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> bool:
        """Returns True when this failure newly opened the breaker."""
        self.failures += 1
        self._probing = False
        if self.opened_at is not None:
            self.opened_at = self._clock()   # failed probe: re-open
            return False
        if self.failures >= self.threshold:
            self.opened_at = self._clock()
            return True
        return False

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` — the operator-facing
        name for where this breaker is in its lifecycle (``repro
        cluster health`` prints it).  Half-open covers a cooled-down
        breaker that is running, or would grant, its single probe."""
        if self.opened_at is None:
            return "closed"
        if self._probing or \
                self._clock() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"


class Endpoint:
    """One server address: its socket, circuit breaker and counters.

    Breaker state living *here* — not on the client — is what keeps a
    dead replica from blacklisting its healthy siblings: each endpoint
    opens, cools down and half-open-probes independently.
    """

    def __init__(self, address, index: int,
                 breaker: CircuitBreaker) -> None:
        self.kind, self.endpoint = parse_address(address)
        self.address = address if isinstance(address, str) \
            else f"{self.endpoint[0]}:{self.endpoint[1]}"
        self.index = index
        self.breaker = breaker
        self.sock: Optional[socket.socket] = None
        self.failures = 0
        self.successes = 0

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


@dataclass
class _Call:
    """One logical request in flight: what its attempts share."""

    op: str
    seq: int
    payload: Dict
    deadline: Deadline
    started: float
    #: endpoints in preference order, and how many choices have been
    #: made from it (the rotation index)
    order: List[Endpoint]
    turn: int = 0
    attempt: int = 0
    span: Optional[object] = None
    #: hedge threshold capping the first attempt, while armed
    cap: Optional[float] = None
    hedged: bool = False
    error: Optional[Exception] = None
    tried: List[Endpoint] = field(default_factory=list)
    charged: List[Endpoint] = field(default_factory=list)
    #: endpoints whose half-open probe this request holds
    probing: List[Endpoint] = field(default_factory=list)


class ReplicaSet:
    """One shard group's request engine: its replicas in failover
    order, and every policy that stands between a caller and a socket.

    :meth:`request` gets one answer from the group (any replica) within
    the budget, or raises; :meth:`fan_out` asks every replica
    individually (replicated writes, health views, collectors and
    repair need each replica's own answer).  ``sleep`` and ``clock``
    are injectable so tests and chaos runs never actually wait out a
    backoff; ``name`` labels the group in fault-injection context and
    traces; ``stats`` is the record to count into (the repository
    shares one across its groups).

    Overload knobs (docs/overload.md): ``request_budget`` is the
    deadline budget in seconds for one logical request (attempts +
    backoffs + failovers all spend from it); ``retry_budget_*``
    parameterize the token bucket that bounds retry amplification;
    ``jitter_seed`` decorrelates this client's backoff jitter from its
    peers' (the fleet engine passes each instance's seed);
    ``hedge_threshold`` pins the hedged pull's primary bound in
    seconds — the default (None) derives it as ``max(HEDGE_FLOOR,
    2 x pull p99)`` from the group's own pow2 latency histogram once
    :data:`HEDGE_MIN_SAMPLES` pulls have been observed.
    """

    def __init__(self, addresses, name: str = "",
                 stats: Optional[RemoteStats] = None,
                 timeout: float = 2.0, retries: int = 3,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 breaker_threshold: int = 4,
                 breaker_cooldown: float = 1.0,
                 tracer=None, sleep=time.sleep, clock=time.monotonic,
                 request_budget: float = 8.0,
                 retry_budget_earn: float = 0.5,
                 retry_budget_initial: float = 3.0,
                 jitter_seed: int = 0,
                 hedge_threshold: Optional[float] = None) -> None:
        self.endpoints = [
            Endpoint(address, index,
                     CircuitBreaker(threshold=breaker_threshold,
                                    cooldown=breaker_cooldown,
                                    clock=clock))
            for index, address in enumerate(addresses)]
        self.name = name
        self.remote_stats = RemoteStats() if stats is None else stats
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.request_budget = request_budget
        self.jitter_seed = jitter_seed
        self.hedge_threshold = hedge_threshold
        self.retry_budget = RetryBudget(earn_rate=retry_budget_earn,
                                        initial=retry_budget_initial)
        self.tracer = tracer
        #: distributed-tracing root (:class:`repro.obs.telemetry
        #: .TraceContext`); when set, every request derives a child
        #: span, stamps it into the frame as ``trace_ctx``, and — with
        #: a tracer also set — emits the client-side request slice
        self.trace_ctx = None
        self._clock = clock
        self._sleep = sleep
        self._seq = 0
        #: this group's successful pull latencies (ms) feeding the
        #: hedge threshold (client-private; never in a snapshot)
        self._pull_ms = Histogram("pull_ms", {})

    @property
    def address(self) -> str:
        """Human-readable address (all endpoints, comma-joined)."""
        return ",".join(ep.address for ep in self.endpoints)

    @property
    def quorum(self) -> int:
        """Write acks that make a majority of this replica set."""
        return len(self.endpoints) // 2 + 1

    def close(self) -> None:
        for ep in self.endpoints:
            ep.close()

    def _trace(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    # -- the request path ----------------------------------------------------

    def request(self, op: str, payload: Optional[Dict] = None) -> Dict:
        """One replica's answer to ``op`` within the request budget —
        deadlines, retry budget, backoff, failover, hedging and
        breakers applied — or raises (:class:`RemoteError`)."""
        return self._request(op, payload or {}, self.endpoints)

    def fan_out(self, op: str,
                payload: Optional[Dict] = None) -> List[Optional[Dict]]:
        """Send one request to *every* endpoint individually.

        Returns one entry per endpoint, ``None`` where that endpoint's
        request exhausted its budget — replicated writes count quorum
        from this.  Never raises.
        """
        results: List[Optional[Dict]] = []
        for ep in self.endpoints:
            try:
                results.append(self._request(op, payload or {}, (ep,)))
            except Exception as error:  # noqa: BLE001 - per-endpoint
                # failures are the data here, not an exception
                log.debug("fan-out %s to %s failed: %s", op,
                          ep.address, error)
                results.append(None)
        return results

    def _request(self, op: str, payload: Dict,
                 pool: Sequence[Endpoint]) -> Dict:
        """The steps of one logical request over ``pool``, in order:
        budget check, endpoint choice, attempt, outcome."""
        call = self._open(op, payload, pool)
        hedge = False
        try:
            for attempt in range(self.retries + 1):
                call.attempt = attempt
                ep = self._choose(call)
                if ep is None:
                    self.remote_stats.breaker_short_circuits += 1
                    raise RemoteUnavailable(
                        f"circuit breaker open for {self.address}")
                if attempt:
                    # a hedge is a retry that does not wait
                    self._spend_retry(call, ep, wait=not hedge)
                response = self._try(call, ep)
                if response is not None:
                    return self._accept(call, ep, pool, response)
                hedge = call.cap is not None
                if hedge:
                    self._hedge(call, ep)
            # exhausted: every endpoint that participated records
            # exactly one failure — per-request, per-endpoint, so a
            # single dead replica trips only its own breaker
            for ep in call.tried:
                self._charge(call, ep)
            raise RemoteUnavailable(
                f"{op} to {self.address} failed after "
                f"{self.retries + 1} attempt(s): "
                f"{type(call.error).__name__}: {call.error}")
        finally:
            for ep in call.probing:
                ep.breaker.release()

    def _open(self, op: str, payload: Dict,
              pool: Sequence[Endpoint]) -> _Call:
        """Budget check: count the request, start its deadline, derive
        its trace span, arm the hedge."""
        stats = self.remote_stats
        stats.requests += 1
        self._seq += 1
        call = _Call(op, self._seq, payload,
                     Deadline.after(self.request_budget, self._clock),
                     self._clock(), list(pool))
        if fault_point("overload.deadline", op=op):
            # injected budget expiry: the request is born dead
            stats.deadline_exceeded += 1
            self._trace("remote.deadline", op=op, stage="injected")
            raise RemoteUnavailable(
                f"{op} deadline budget expired (injected)")
        self._trace("remote.request", op=op, seq=call.seq)
        if self.trace_ctx is not None:
            # one child span per request (not per attempt): retries,
            # hedges and failovers are delivery details of the same
            # logical call, so the server-side spans they open share
            # one parent
            start = self.tracer.now() if self.tracer is not None else 0.0
            call.span = self.trace_ctx.child(call.seq, ts=start)
            call.payload = dict(payload, trace_ctx=call.span.to_wire())
        if op == "pull" and len(pool) > 1:
            if self.retries:    # a hedge needs a second attempt to send
                call.cap = self._hedge_threshold()
            if fault_point("overload.hedge", group=self.name, op=op):
                # injected trigger: the primary is presumed slow past
                # the threshold without being asked
                call.error = RemoteError("injected hedge trigger")
                self._hedge(call, pool[0])
        return call

    def _hedge_threshold(self) -> Optional[float]:
        """The bound in seconds on a hedged pull's first attempt, or
        None while the histogram is still cold (un-hedged pulls)."""
        if self.hedge_threshold is not None:
            return self.hedge_threshold
        if self._pull_ms.count >= HEDGE_MIN_SAMPLES:
            return max(HEDGE_FLOOR,
                       2.0 * self._pull_ms.percentile(99) / 1000.0)
        return None

    def _hedge(self, call: _Call, first: Endpoint) -> None:
        """Abandon the request's first choice — the primary, unless its
        breaker had already taken it out of the order — for its
        siblings (an answer still in flight dies with the closed
        socket).  If it failed its capped attempt it is charged as a
        request of its own would have been, so a persistently slow
        replica drops out of the order instead of costing every pull
        the threshold."""
        self.remote_stats.hedges += 1
        self._trace("cluster.hedge", group=self.name, threshold=call.cap,
                    error=type(call.error).__name__)
        if first in call.tried:
            self._charge(call, first)
        call.order = [ep for ep in call.order if ep is not first] \
            + [first]
        call.turn = 0
        call.cap = None
        call.hedged = True

    def _choose(self, call: _Call) -> Optional[Endpoint]:
        """Endpoint choice: closed breakers first, rotating in
        preference order; open-breaker endpoints join only when no
        healthy one remains, and a half-open probe is granted to the
        one endpoint about to be tried — never to one that might not
        be (a granted, unused probe would blacklist it for good)."""
        turn, call.turn = call.turn, call.turn + 1
        closed = [ep for ep in call.order if not ep.breaker.is_open]
        if closed:
            chosen = closed[turn % len(closed)]
        else:
            count = len(call.order)
            for offset in range(count):
                chosen = call.order[(turn + offset) % count]
                if chosen in call.probing:
                    break
                if chosen.breaker.allows():
                    call.probing.append(chosen)
                    break
            else:
                return None
        if chosen not in call.tried:
            call.tried.append(chosen)
        return chosen

    def _spend_retry(self, call: _Call, ep: Endpoint,
                     wait: bool) -> None:
        """A retry spends from both budgets: the deadline (time) and
        the retry bucket (amplification) — whichever runs out first
        ends the request without breaker penalties (the budget is
        indicted, not the endpoints)."""
        stats, op, error = self.remote_stats, call.op, call.error
        attempt = call.attempt
        if call.deadline.expired:
            stats.deadline_exceeded += 1
            self._trace("remote.deadline", op=op, attempt=attempt,
                        stage="retry")
            raise RemoteUnavailable(
                f"{op} deadline budget spent after {attempt} "
                f"attempt(s): {type(error).__name__}: {error}")
        if not self.retry_budget.spend():
            stats.budget_exhausted += 1
            self._trace("remote.budget_exhausted", op=op,
                        attempt=attempt)
            raise RemoteUnavailable(
                f"{op} retry budget exhausted after {attempt} "
                f"attempt(s): {type(error).__name__}: {error}")
        stats.retries += 1
        self._trace("remote.retry", op=op, attempt=attempt,
                    endpoint=ep.index, error=type(error).__name__)
        if not wait:
            return
        delay = self._backoff(call, attempt - 1, ep.address)
        if isinstance(error, _Overloaded):
            delay = max(delay, error.retry_after)
        self._sleep(min(delay, call.deadline.remaining()))

    def _backoff(self, call: _Call, attempt: int, endpoint: str) -> float:
        """Exponential backoff with deterministic jitter.

        The jitter is hashed from (jitter seed, endpoint, op, request
        seq, attempt) so concurrent clients decorrelate without any
        global RNG — the same request history always waits the same
        total time, but two clients retrying the same endpoint after
        the same failure never synchronize into lockstep retry waves
        (their seeds differ), and one client's retries against two
        replicas spread out too (the addresses differ).
        """
        spread = zlib.crc32(
            f"{self.jitter_seed}:{endpoint}:{call.op}:"
            f"{call.seq}:{attempt}".encode()) % 1000
        factor = 0.5 + spread / 2000.0      # in [0.5, 1.0)
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** attempt) * factor)

    def _connect(self, ep: Endpoint, timeout: float) -> socket.socket:
        # the socket timeout always derives from the caller's deadline
        # budget (TMO001); ``self.timeout`` is only its upper bound
        if ep.sock is not None:
            ep.sock.settimeout(timeout)
            return ep.sock
        fault_point("net.connect", address=ep.address)
        if ep.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(ep.endpoint)
        except BaseException:
            sock.close()
            raise
        ep.sock = sock
        return sock

    def _attempt(self, call: _Call, ep: Endpoint) -> Dict:
        """One network round trip on one endpoint; raises on failure.

        The socket timeout is ``min(timeout, remaining deadline)``
        (capped further by the hedge threshold while it is armed), and
        the remaining budget is stamped into the frame as
        ``deadline_ms`` on *every* attempt, so the server always sees
        how much of the budget retries have spent.
        """
        op, deadline = call.op, call.deadline
        if fault_point("cluster.replica", group=self.name,
                       replica=ep.index, address=ep.address):
            raise ConnectionResetError(
                f"injected replica partition from {ep.address}")
        remaining = deadline.remaining()
        if remaining <= 0.0:
            raise _DeadlineExpired(
                f"no budget left before attempting {op}")
        timeout = min(self.timeout, remaining)
        if call.cap is not None:
            timeout = min(timeout, call.cap)
        sock = self._connect(ep, timeout)
        request = {"op": op}
        request.update(call.payload)
        request["deadline_ms"] = deadline.remaining_ms()
        fault_point("net.send", op=op)
        protocol.send_message(sock, request)
        fault_point("net.recv", op=op)
        response = protocol.recv_message(sock)
        if fault_point("net.payload", op=op):
            raise protocol.ProtocolError(
                "injected payload corruption (checksum mismatch)")
        if fault_point("overload.shed", op=op, endpoint=ep.index):
            raise _Overloaded("injected server shed",
                              retry_after=self.backoff_base)
        if response.get("ok") is True:
            if fault_point("net.lease", op=op):
                raise _LeaseBusy("injected stale writer lease")
            if op == "pull" and fault_point("cluster.pull",
                                            group=self.name, op=op):
                raise _Stale(f"{ep.address} answered from a stale "
                             f"manifest")
            return response
        category = response.get("error")
        detail = response.get("detail", "")
        if category == "overloaded":
            # load shedding: retryable, and the connection stays up —
            # honor the server's retry_after pacing hint if it sent one
            hint = response.get("retry_after")
            raise _Overloaded(
                f"{category}: {detail}",
                retry_after=hint if isinstance(hint, (int, float))
                and hint >= 0 else 0.0)
        if category in protocol.RETRYABLE_ERRORS:
            if category == "busy":
                # admission rejections also drop the connection
                # server-side; reconnect on the retry
                ep.close()
            raise _LeaseBusy(f"{category}: {detail}")
        if category in protocol.CLIENT_FAULT_ERRORS:
            raise RemoteRejected(
                f"server rejected {op}: {category}: {detail}")
        raise RemoteError(f"server refused {op}: {category}: {detail}")

    def _try(self, call: _Call, ep: Endpoint) -> Optional[Dict]:
        """One attempt and the classification of its outcome: the
        response; None after a retryable failure (counted, kept in
        ``call.error``); or raises when the request is over."""
        stats, op = self.remote_stats, call.op
        try:
            return self._attempt(call, ep)
        except _Stale as error:
            # discard the reply and let the rotation try a sibling; the
            # replica itself is healthy
            stats.stale_replicas += 1
            call.error = error
            self._trace("cluster.failover", group=self.name,
                        reason="stale-replica")
        except _Overloaded as error:
            # shedding is healthy backpressure: the connection stays up
            stats.sheds += 1
            call.error = error
            self._trace("remote.shed", op=op, endpoint=ep.index,
                        retry_after=error.retry_after)
        except _LeaseBusy as error:
            # server is healthy, just contended: the connection stays up
            stats.lease_busy += 1
            call.error = error
        except _DeadlineExpired as error:
            stats.deadline_exceeded += 1
            self._trace("remote.deadline", op=op, attempt=call.attempt,
                        stage="attempt")
            raise RemoteUnavailable(
                f"{op} deadline budget spent: {error}")
        except protocol.ProtocolError as error:
            stats.protocol_errors += 1
            call.error = error
            ep.close()      # framing is unrecoverable mid-stream
        except (socket.timeout, TimeoutError) as error:
            stats.timeouts += 1
            call.error = error
            ep.close()
        except OSError as error:
            stats.conn_errors += 1
            call.error = error
            ep.close()
        except RemoteRejected:
            # the request is defective, not the endpoint: no retry,
            # no breaker penalty, and the connection stays usable
            stats.rejected_fast += 1
            raise
        except RemoteError:
            # ``internal``: this server's handler failed — a bug, not
            # a transient, so the request ends here; the endpoint is
            # indicted
            stats.server_errors += 1
            self._charge(call, ep)
            raise
        return None

    def _charge(self, call: _Call, ep: Endpoint) -> None:
        """One breaker failure for ``ep`` — at most one per request."""
        if ep in call.charged:
            return
        call.charged.append(ep)
        ep.close()
        ep.failures += 1
        if ep.breaker.record_failure():
            self.remote_stats.breaker_opens += 1
            self._trace("remote.breaker_open", op=call.op,
                        endpoint=ep.index)

    def _accept(self, call: _Call, ep: Endpoint,
                pool: Sequence[Endpoint], response: Dict) -> Dict:
        """Outcome of an answered attempt: credit the endpoint, drop a
        late answer, count what kind of success this was."""
        stats, op = self.remote_stats, call.op
        was_open = ep.breaker.is_open
        ep.breaker.record_success()
        ep.successes += 1
        if was_open:
            self._trace("remote.breaker_close", op=op, endpoint=ep.index)
        if call.deadline.expired:
            # intact but late: the endpoint is healthy (its breaker
            # was credited above) yet the answer is dead — drop it
            # so nothing downstream consumes a post-deadline result
            stats.late_responses += 1
            self._trace("remote.deadline", op=op, attempt=call.attempt,
                        stage="late")
            raise RemoteUnavailable(
                f"{op} response from {ep.address} arrived after "
                f"its deadline; dropped")
        if ep is not pool[0]:
            stats.failovers += 1
            if call.hedged:
                stats.hedge_wins += 1
                self._trace("cluster.hedge_win", group=self.name)
        stats.successes += 1
        self.retry_budget.earn()
        if op == "pull":
            self._pull_ms.observe((self._clock() - call.started) * 1000.0)
        if call.span is not None and self.tracer is not None:
            self.tracer.complete(
                _SPAN_NAMES.get(op, "remote.op"), start=call.span.ts,
                op=op, span=call.span.span_id, endpoint=ep.index)
        return response

    # -- probes: an answer, or None instead of raising -----------------------

    def ask(self, op: str) -> Optional[Dict]:
        """The first healthy endpoint's answer to a payload-less op,
        minus ``ok``; None when no endpoint responds."""
        try:
            return _answer(self.request(op))
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            log.debug("%s request failed: %s", op, error)
            return None

    def ping(self) -> bool:
        """Liveness probe; False instead of raising."""
        return self.ask("ping") is not None

    def endpoint_health(self) -> List[Dict]:
        """Per-endpoint health view: breaker state + the server's own
        ``health`` answer (None for unreachable endpoints)."""
        view = []
        for ep, answer in zip(self.endpoints, self.fan_out("health")):
            view.append({
                "address": ep.address,
                "index": ep.index,
                "breaker_open": ep.breaker.is_open,
                "consecutive_failures": ep.breaker.failures,
                "failures": ep.failures,
                "successes": ep.successes,
                "health": answer and _answer(answer),
                # read *after* the probe, so one that just tripped or
                # closed the breaker shows its real state
                "breaker": ep.breaker.state,
            })
        return view


class RemoteRepository:
    """Translation repository served by cache servers, with fallback.

    ``spec`` is one server address (anything :func:`parse_address`
    accepts), a list of them (one replica set), or anything
    :meth:`ClusterSpec.parse` accepts — shard groups the ring routes
    content keys across.  ``local`` (a path or
    :class:`TranslationRepository`, optional) is the ladder's local
    rung; without one a failed group's records are simply absent and
    the VM translates those blocks cold.  Every other keyword is the
    request engine's (:class:`ReplicaSet`) and applies to each group.

    * **reads** pull each group's share of the manifest from one
      replica and union the records by content key — a deterministic,
      key-sorted union, so the warm-start set does not depend on which
      replica of each group answered, and any degraded group just
      shrinks it (the local repository refills it when there is one);
    * **writes** partition records by ring group and fan out to every
      replica of the group as ``merge=true`` pushes, counting a
      majority quorum per group.
    """

    def __init__(self, spec, local=None, tracer=None, **policy) -> None:
        self.spec = as_spec(spec)
        self.ring = self.spec.ring()
        if local is None or isinstance(local, TranslationRepository):
            self.local = local
        else:
            self.local = TranslationRepository(local)
        self.remote_stats = RemoteStats()
        self.groups: Dict[str, ReplicaSet] = {
            group.name: ReplicaSet(group.replicas, name=group.name,
                                   stats=self.remote_stats,
                                   tracer=tracer, **policy)
            for group in self.spec.groups}
        self.tracer = tracer
        #: flight-recorder dump taken at the last fallback (needs a
        #: bound tracer); forensic context for "why did we go local?"
        self.last_flight: Optional[Dict] = None
        #: the servers' answer to the most recent push that any replica
        #: acked (``written``/``deduped``/``rejected``, the first ack of
        #: each group summed); None before any push or when the last
        #: one degraded whole.  The fleet engine reads
        #: dedup-amortization curves from this.
        self.last_push: Optional[Dict] = None

    # -- plumbing ------------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        """Attach an event tracer (``CoDesignedVM`` does this for the
        run's tracer so client degradations land in the run's trace)."""
        self.tracer = tracer
        for engine in self.groups.values():
            engine.tracer = tracer

    def bind_trace_context(self, context) -> None:
        """Attach the distributed-tracing root.  Every request from
        then on is stamped with a per-request child span the server
        parents its own span under.  Each group gets its own child
        lane (derived, not shared) so per-group request sequence
        numbers cannot collide into one span id; give every client its
        own root (distinct lane/rank) for the same reason."""
        for name in sorted(self.groups):
            self.groups[name].trace_ctx = context.child(f"group:{name}")

    def _trace(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    def close(self) -> None:
        for engine in self.groups.values():
            engine.close()

    # -- the ladder's lower rungs --------------------------------------------

    def _group_failed(self, group: str, op: str,
                      error: Exception) -> Exception:
        """No replica of ``group`` served ``op``."""
        self.remote_stats.group_degradations += 1
        self._trace("cluster.degrade", group=group, op=op,
                    error=type(error).__name__,
                    target="local" if self.local is not None else "cold")
        return error

    def _fall_back(self, op: str,
                   error: Exception) -> Optional[TranslationRepository]:
        """Replicas and siblings are spent for some group: the call
        continues on the local repository when one was given (returned
        for the caller to use), else cold."""
        stats = self.remote_stats
        stats.fallbacks += 1
        if self.local is not None:
            stats.local_fallbacks += 1
        else:
            stats.cold_degradations += 1
        target = "local" if self.local is not None else "cold"
        self._trace("remote.fallback", op=op,
                    error=type(error).__name__, target=target)
        if self.tracer is not None:
            self.last_flight = self.tracer.flight_dump(
                "remote-fallback", op=op,
                address=self.spec.to_string(),
                error=f"{type(error).__name__}: {error}")
        log.warning("shared cache unavailable for %s (%s); degrading "
                    "to %s", op, error,
                    "local repository" if self.local is not None
                    else "cold translation")
        return self.local

    # -- the repository surface ---------------------------------------------

    def load(self, config_fp: str, image_fp: str) -> List[Record]:
        """Key-sorted union of every reachable group's records for one
        (config, image) pair; never raises."""
        return self.fetch(config_fp, image_fp)[0]

    def fetch(self, config_fp: str, image_fp: str
              ) -> Tuple[List[Record], int]:
        """:meth:`load`'s records, and how many entries of the manifests
        they came from did not arrive as a record (one pull per group,
        its ``entries`` and objects from one manifest read)."""
        stats = self.remote_stats
        stats.pulls += 1
        payload = {"config_fp": config_fp, "image_fp": image_fp}
        merged: Dict[str, Record] = {}
        missing = 0
        failure = None
        for name in sorted(self.groups):
            try:
                fault_point("cluster.route", group=name, op="pull")
                response = self.groups[name].request("pull", payload)
                records = pulled_records(response)
            except Exception as error:  # noqa: BLE001 - degrade, never
                # raise into the VM
                failure = self._group_failed(name, "pull", error)
                continue
            stats.records_pulled += len(records)
            missing += len(response["entries"]) - len(records)
            for record in records:
                merged.setdefault(record["key"], record)
        if failure is not None:
            local = self._fall_back("pull", failure)
            if local is not None:
                records, dropped = local.fetch(config_fp, image_fp)
                missing += dropped
                for record in records:
                    merged.setdefault(record["key"], record)
        return [merged[key] for key in sorted(merged)], missing

    def save(self, records: List[Record], config_fp: str, image_fp: str,
             config_name: str = "") -> int:
        """Replicated, sharded push with quorum accounting; never raises.
        Each record travels as its stored text.

        Per group: zero acks counts ``push_group_failures`` and that
        share goes down the ladder; acks below the quorum count
        ``quorum_misses`` (anti-entropy heals the lag).  Returns the
        number of records newly written (per group the most any
        acking replica reports, summed; plus what the local repository
        took).
        """
        stats = self.remote_stats
        stats.pushes += 1
        by_group: Dict[str, List[Record]] = {}
        for record in records:
            if record is not None:
                by_group.setdefault(
                    self.ring.group_for(record["key"]), []).append(record)
        written = 0
        summary = {"written": 0, "deduped": 0, "rejected": 0}
        acked = False
        unplaced: List[Record] = []
        failure = None
        for name in sorted(by_group):
            share = by_group[name]
            engine = self.groups[name]
            try:
                fault_point("cluster.route", group=name, op="push")
                acks = [ack for ack in engine.fan_out("push", {
                    "records": [record.text for record in share],
                    "config_fp": config_fp,
                    "image_fp": image_fp, "config_name": config_name,
                    "merge": True}) if ack is not None]
            except Exception as error:  # noqa: BLE001 - degrade, never
                # raise into the VM
                failure = self._group_failed(name, "push", error)
                acks = []
            self._trace("cluster.quorum", group=name, acks=len(acks),
                        needed=engine.quorum,
                        replicas=len(engine.endpoints),
                        records=len(share))
            if not acks:
                stats.push_group_failures += 1
                failure = failure or RemoteUnavailable(
                    f"no replica of {name} acked the push")
                unplaced.extend(share)
                continue
            if len(acks) < engine.quorum:
                stats.quorum_misses += 1
            acked = True
            stats.records_pushed += len(share)
            # the freshest replica's answer describes what this push
            # added to the cluster; laggards re-writing old objects
            # would overstate it
            written += max(_count(ack, "written") for ack in acks)
            for counter in summary:
                summary[counter] += _count(acks[0], counter)
        self.last_push = summary if acked else None
        if failure is not None:
            local = self._fall_back("push", failure)
            if local is not None:
                written += local.save(unplaced, config_fp, image_fp,
                                      config_name=config_name, merge=True)
        return written

    # -- observability -------------------------------------------------------

    def health_view(self) -> Dict[str, List[Dict]]:
        """Per-group, per-endpoint health (breakers + server answers)."""
        return {name: self.groups[name].endpoint_health()
                for name in sorted(self.groups)}

    def ping(self) -> bool:
        """True when every shard group has at least one live replica."""
        return all(self.groups[name].ping()
                   for name in sorted(self.groups))


def _answer(response: Dict) -> Dict:
    """An ``ok`` response's fields."""
    return {key: value for key, value in response.items()
            if key != "ok"}


def _count(ack: Dict, name: str) -> int:
    value = ack.get(name)
    return value if isinstance(value, int) else 0


class _LeaseBusy(Exception):
    """Internal: retryable server-side contention (stale/held lease)."""


class _Overloaded(_LeaseBusy):
    """Internal: the server shed this request (``overloaded``); carries
    its ``retry_after`` pacing hint (seconds, 0.0 when absent)."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _Stale(Exception):
    """Internal: a replica answered a pull from a stale manifest."""


class _DeadlineExpired(Exception):
    """Internal: the request's deadline budget ran out mid-flight."""
