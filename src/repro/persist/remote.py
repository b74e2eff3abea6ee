"""RemoteRepository — the fault-tolerant shared-cache client.

To the VM this is just another repository (``load`` / ``save`` /
``manifest_entry_count``), but it fronts one or more
:class:`~repro.cacheserver.server.CacheServer` endpoints over sockets,
and the network is allowed to do its worst.  The contract mirrors the
rest of the translation stack: the shared cache is an *optimization*,
so **no server failure may change architected results or kill the
run** — every failure mode degrades, in order, to another replica
endpoint, then the local repository and ultimately cold BBT
translation.

Failure handling, layer by layer:

* **deadline propagation** — every logical request opens one
  :class:`~repro.persist.deadline.Deadline` (``request_budget``
  seconds) that all attempts, retries and failovers spend from; each
  attempt's socket timeout is ``min(timeout, remaining budget)`` and
  the remaining budget rides the frame as ``deadline_ms`` so servers
  can refuse already-dead work.  A response arriving after its own
  deadline is *dropped* (counted in ``late_responses``) — no caller
  ever consumes a result past its budget;
* **bounded retries** — transient failures (refused connection, torn
  frame, timeout, ``lease-busy``, ``overloaded``) are retried up to
  ``retries`` times with exponential backoff and *deterministic*
  jitter (hashed from the jitter seed, the endpoint address and the
  request identity, never the wall clock or a global RNG, so tests and
  chaos runs replay exactly and concurrent clients never sync into
  lockstep retry waves); a shedding server's ``retry_after`` hint
  raises the wait floor;
* **retry budgets** — retries additionally spend from a
  :class:`~repro.persist.deadline.RetryBudget` token bucket that only
  successes refill, so a down shard produces bounded amplification
  instead of a retry storm; a dry bucket fails the request over to the
  degradation ladder immediately;
* **replica failover** — a client given several endpoints (a shard
  group's replica set, see ``repro.cluster``) spreads its retry budget
  across them in declared order, healthy endpoints first, so one dead
  replica costs one attempt, not the whole request;
* **checksum screening** — frames carry a CRC over the payload; a
  corrupt payload is dropped at the codec, counted, and retried like
  any transient failure;
* **per-endpoint circuit breakers** — each endpoint owns its breaker:
  after ``breaker_threshold`` consecutive request failures *on that
  endpoint* it opens and that endpoint drops out of the failover order
  for ``breaker_cooldown`` seconds (then one half-open probe is let
  through, closing it on success).  Breakers are independent, so a
  dead replica can never blacklist its healthy siblings; requests
  short-circuit to the fallback only when every endpoint's breaker is
  open;
* **graceful degradation** — any exhausted request falls back to the
  ``local`` repository when one was given, else behaves like an empty
  store (a load returns no records and the VM translates cold).

Every decision is observable: counters in :class:`RemoteStats`, the
per-endpoint :meth:`RemoteRepository.endpoint_health` view,
``remote.*`` events in a bound tracer, and a flight-recorder dump
(:attr:`RemoteRepository.last_flight`) snapshotting the events leading
up to each fallback.  See ``docs/cache_server.md`` for the failure
matrix and ``docs/cluster.md`` for the multi-endpoint ladder.
"""

from __future__ import annotations

import logging
import socket
import time
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cacheserver import protocol
from repro.faults.plane import fault_point
from repro.persist.deadline import Deadline, RetryBudget
from repro.persist.repository import TranslationRepository, parse_object

log = logging.getLogger("repro.persist.remote")

#: Client-side span name per wire op (EVENT_TYPES slices); ops without
#: a dedicated lane share the generic ``remote.op`` slice.
_SPAN_NAMES = {"pull": "remote.pull", "push": "remote.push"}


class RemoteError(Exception):
    """A request failed for good (non-retryable or retries exhausted)."""


class RemoteUnavailable(RemoteError):
    """Transport-level failure after exhausting the retry budget."""


class RemoteRejected(RemoteError):
    """The server indicted the *request* (``bad-request`` /
    ``deadline-exceeded``): fail fast, no retry, and — unlike server
    faults — no circuit-breaker penalty and no dropped connection,
    because the endpoint is healthy."""


def pulled_records(response: Dict) -> List[Dict]:
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


def as_address_list(address) -> List:
    """Normalize one address or a replica list into a list.

    A bare ``(host, port)`` 2-tuple is one address, not two.
    """
    if isinstance(address, (list, tuple)):
        if (len(address) == 2 and isinstance(address[0], str)
                and isinstance(address[1], int)):
            return [tuple(address)]
        addresses = list(address)
        if not addresses:
            raise ValueError("empty server address list")
        return addresses
    return [address]


@dataclass
class RemoteStats:
    """Client-side counters — the observable shape of every degradation."""

    requests: int = 0
    successes: int = 0
    retries: int = 0
    timeouts: int = 0
    conn_errors: int = 0
    protocol_errors: int = 0
    lease_busy: int = 0
    server_errors: int = 0
    breaker_opens: int = 0
    breaker_short_circuits: int = 0
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

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    def format(self) -> str:
        fields = self.to_dict()
        width = max(len(name) for name in fields)
        return "\n".join(f"{name:<{width}}  {value}"
                         for name, value in fields.items())


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
        """Whether a request may hit the network right now."""
        if self.opened_at is None:
            return True
        if self._clock() - self.opened_at < self.cooldown:
            return False
        # cooled down: let exactly one probe through (half-open)
        if self._probing:
            return False
        self._probing = True
        return True

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


class RemoteRepository:
    """Translation repository served by cache server(s), with fallback.

    ``address`` is anything :func:`parse_address` accepts, or a list of
    such addresses — a replica set the client fails over across (the
    cluster tier builds one client per shard group this way).
    ``local`` (a path or :class:`TranslationRepository`, optional) is
    the degradation target; without one, failed loads act like an empty
    store.  ``sleep`` is injectable so tests and chaos runs never
    actually wait out a backoff.  ``name`` labels this client (the
    shard group name) in fault-injection context and traces.

    Overload knobs (docs/overload.md): ``request_budget`` is the
    deadline budget in seconds for one logical request (attempts +
    backoffs + failovers all spend from it); ``retry_budget_*``
    parameterize the token bucket that bounds retry amplification;
    ``jitter_seed`` decorrelates this client's backoff jitter from its
    peers' (the fleet engine passes each instance's seed).
    """

    def __init__(self, address, local=None, timeout: float = 2.0,
                 retries: int = 3, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 breaker_threshold: int = 4,
                 breaker_cooldown: float = 1.0,
                 tracer=None, sleep=time.sleep,
                 clock=time.monotonic, name: str = "",
                 request_budget: float = 8.0,
                 retry_budget_capacity: float = 8.0,
                 retry_budget_earn: float = 0.5,
                 retry_budget_initial: float = 3.0,
                 jitter_seed: int = 0) -> None:
        self.endpoints = [
            Endpoint(addr, index,
                     CircuitBreaker(threshold=breaker_threshold,
                                    cooldown=breaker_cooldown,
                                    clock=clock))
            for index, addr in enumerate(as_address_list(address))]
        self.name = name
        if local is None or isinstance(local, TranslationRepository):
            self.local = local
        else:
            self.local = TranslationRepository(local)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.request_budget = request_budget
        self.jitter_seed = jitter_seed
        self.retry_budget = RetryBudget(capacity=retry_budget_capacity,
                                        earn_rate=retry_budget_earn,
                                        initial=retry_budget_initial)
        self.remote_stats = RemoteStats()
        self.tracer = tracer
        self._clock = clock
        #: distributed-tracing root (:class:`repro.obs.telemetry
        #: .TraceContext`); when bound, every request derives a child
        #: span, stamps it into the frame as ``trace_ctx``, and — with
        #: a tracer also bound — emits the client-side request slice
        self.trace_ctx = None
        self._sleep = sleep
        self._request_seq = 0
        #: flight-recorder dump taken at the last fallback (needs a
        #: bound tracer); forensic context for "why did we go local?"
        self.last_flight: Optional[Dict] = None
        #: the server's response to the most recent successful push
        #: (``written``/``deduped``/``rejected``); None before any push
        #: or when the last push degraded to the local repository.  The
        #: fleet engine reads dedup-amortization curves from this.
        self.last_push: Optional[Dict] = None

    # -- single-endpoint back-compat surface --------------------------------

    @property
    def address(self) -> str:
        """Human-readable address (all endpoints, comma-joined)."""
        return ",".join(ep.address for ep in self.endpoints)

    @property
    def breaker(self) -> CircuitBreaker:
        """The primary endpoint's breaker (single-server callers)."""
        return self.endpoints[0].breaker

    @property
    def kind(self) -> str:
        return self.endpoints[0].kind

    @kind.setter
    def kind(self, value: str) -> None:
        self.endpoints[0].kind = value

    @property
    def endpoint(self):
        return self.endpoints[0].endpoint

    @endpoint.setter
    def endpoint(self, value) -> None:
        # tests repoint a client at a restarted server: drop the dead
        # socket so the next attempt reconnects to the new address
        self.endpoints[0].close()
        self.endpoints[0].endpoint = value

    def bind_tracer(self, tracer) -> None:
        """Attach an event tracer (``CoDesignedVM`` does this for the
        run's tracer so client degradations land in the run's trace)."""
        self.tracer = tracer

    def bind_trace_context(self, context) -> None:
        """Attach the distributed-tracing root context.  Every request
        from then on is stamped with a per-request child span the
        server parents its own span under; give every client its own
        root (distinct lane/rank/group) so span ids cannot collide."""
        self.trace_ctx = context

    def _trace(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, **args)

    # -- connection management ----------------------------------------------

    def _connect(self, ep: Endpoint,
                 timeout: Optional[float] = None) -> socket.socket:
        # the socket timeout always derives from the caller's deadline
        # budget (TMO001); ``self.timeout`` is only its upper bound
        budget = self.timeout if timeout is None else timeout
        if ep.sock is not None:
            ep.sock.settimeout(budget)
            return ep.sock
        fault_point("net.connect", address=ep.address)
        if ep.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(budget)
        try:
            sock.connect(ep.endpoint)
        except BaseException:
            sock.close()
            raise
        ep.sock = sock
        return sock

    def close(self) -> None:
        for ep in self.endpoints:
            ep.close()

    # -- the request engine --------------------------------------------------

    def _backoff(self, op: str, attempt: int,
                 endpoint: str = "") -> float:
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
            f"{self.jitter_seed}:{endpoint}:{op}:"
            f"{self._request_seq}:{attempt}".encode()) % 1000
        factor = 0.5 + spread / 2000.0      # in [0.5, 1.0)
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** attempt) * factor)

    def _attempt(self, op: str, payload: Dict, ep: Endpoint,
                 deadline: Deadline,
                 timeout_cap: Optional[float] = None) -> Dict:
        """One network round trip on one endpoint; raises on failure.

        The socket timeout is ``min(timeout, remaining deadline)``
        (optionally capped further by ``timeout_cap`` — the cluster
        client's hedge threshold), and the remaining budget is stamped
        into the frame as ``deadline_ms`` on *every* attempt, so the
        server always sees how much of the budget retries have spent.
        """
        if fault_point("cluster.replica", group=self.name,
                       replica=ep.index, address=ep.address):
            raise ConnectionResetError(
                f"injected replica partition from {ep.address}")
        remaining = deadline.remaining()
        if remaining <= 0.0:
            raise _DeadlineExpired(
                f"no budget left before attempting {op}")
        attempt_timeout = min(self.timeout, remaining)
        if timeout_cap is not None:
            attempt_timeout = min(attempt_timeout, timeout_cap)
        sock = self._connect(ep, timeout=attempt_timeout)
        request = {"op": op}
        request.update(payload)
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

    def _candidates(self, endpoints: Sequence[Endpoint]) -> List[Endpoint]:
        """Failover order for one request: closed breakers first (in
        declared order); open-breaker endpoints join only when no
        healthy one remains, and only if their cooldown grants a
        half-open probe (``allows`` is consumed exactly when the
        endpoint will actually be tried)."""
        closed = [ep for ep in endpoints if not ep.breaker.is_open]
        if closed:
            return closed
        return [ep for ep in endpoints if ep.breaker.allows()]

    def _request(self, op: str, payload: Dict,
                 endpoints: Optional[Sequence[Endpoint]] = None,
                 timeout_cap: Optional[float] = None,
                 deadline: Optional[Deadline] = None,
                 max_attempts: Optional[int] = None) -> Dict:
        """Deadlines, budgets, retries, backoff, failover, breakers —
        or raises.  ``deadline`` lets a caller (the cluster client's
        hedged pull) make several calls spend one shared budget;
        ``max_attempts`` overrides the retry count (the hedge's primary
        probe is a single attempt)."""
        stats = self.remote_stats
        stats.requests += 1
        self._request_seq += 1
        if deadline is None:
            deadline = Deadline.after(self.request_budget, self._clock)
        if fault_point("overload.deadline", op=op):
            # injected budget expiry: the request is born dead
            stats.deadline_exceeded += 1
            self._trace("remote.deadline", op=op, stage="injected")
            raise RemoteUnavailable(
                f"{op} deadline budget expired (injected)")
        pool = self.endpoints if endpoints is None else list(endpoints)
        candidates = self._candidates(pool)
        if not candidates:
            stats.breaker_short_circuits += 1
            raise RemoteUnavailable(
                f"circuit breaker open for {self.address}")
        self._trace("remote.request", op=op, seq=self._request_seq)
        span_ctx = None
        if self.trace_ctx is not None:
            # one child span per request (not per attempt): retries and
            # failovers are delivery details of the same logical call,
            # so the server-side spans they open share one parent
            start = self.tracer.now() if self.tracer is not None else 0.0
            span_ctx = self.trace_ctx.child(self._request_seq, ts=start)
            payload = dict(payload)
            payload["trace_ctx"] = span_ctx.to_wire()
        last_error: Optional[Exception] = None
        tried: List[Endpoint] = []
        attempts = self.retries + 1 if max_attempts is None \
            else max(1, max_attempts)
        for attempt in range(attempts):
            ep = candidates[attempt % len(candidates)]
            if ep not in tried:
                tried.append(ep)
            if attempt:
                # a retry spends from both budgets: the deadline (time)
                # and the retry bucket (amplification) — whichever runs
                # out first ends the request without breaker penalties
                # (the budget is indicted, not the endpoints)
                if deadline.expired:
                    stats.deadline_exceeded += 1
                    self._trace("remote.deadline", op=op,
                                attempt=attempt, stage="retry")
                    raise RemoteUnavailable(
                        f"{op} deadline budget spent after "
                        f"{attempt} attempt(s): "
                        f"{type(last_error).__name__}: {last_error}")
                if not self.retry_budget.spend():
                    stats.budget_exhausted += 1
                    self._trace("remote.budget_exhausted", op=op,
                                attempt=attempt)
                    raise RemoteUnavailable(
                        f"{op} retry budget exhausted after "
                        f"{attempt} attempt(s): "
                        f"{type(last_error).__name__}: {last_error}")
                stats.retries += 1
                self._trace("remote.retry", op=op, attempt=attempt,
                            endpoint=ep.index,
                            error=type(last_error).__name__)
                delay = self._backoff(op, attempt - 1, ep.address)
                if isinstance(last_error, _Overloaded):
                    delay = max(delay, last_error.retry_after)
                self._sleep(min(delay, deadline.remaining()))
            try:
                response = self._attempt(op, payload, ep, deadline,
                                         timeout_cap=timeout_cap)
            except _Overloaded as error:
                stats.sheds += 1
                last_error = error
                self._trace("remote.shed", op=op, endpoint=ep.index,
                            retry_after=error.retry_after)
                continue        # shedding is healthy backpressure:
                #                 the connection stays up
            except _LeaseBusy as error:
                stats.lease_busy += 1
                last_error = error
                continue        # server is healthy, just contended:
                #                 the connection stays up
            except _DeadlineExpired as error:
                stats.deadline_exceeded += 1
                self._trace("remote.deadline", op=op,
                            attempt=attempt, stage="attempt")
                raise RemoteUnavailable(
                    f"{op} deadline budget spent: {error}")
            except protocol.ProtocolError as error:
                stats.protocol_errors += 1
                last_error = error
                ep.close()      # framing is unrecoverable mid-stream
                continue
            except (socket.timeout, TimeoutError) as error:
                stats.timeouts += 1
                last_error = error
                ep.close()
                continue
            except OSError as error:
                stats.conn_errors += 1
                last_error = error
                ep.close()
                continue
            except RemoteRejected:
                # the request is defective, not the endpoint: no retry,
                # no breaker penalty, and the connection stays usable
                stats.rejected_fast += 1
                raise
            except RemoteError:
                ep.close()
                ep.failures += 1
                if ep.breaker.record_failure():
                    stats.breaker_opens += 1
                    self._trace("remote.breaker_open", op=op,
                                endpoint=ep.index)
                raise
            was_open = ep.breaker.is_open
            ep.breaker.record_success()
            ep.successes += 1
            if was_open:
                self._trace("remote.breaker_close", op=op,
                            endpoint=ep.index)
            if deadline.expired:
                # intact but late: the endpoint is healthy (its breaker
                # was credited above) yet the answer is dead — drop it
                # so nothing downstream consumes a post-deadline result
                stats.late_responses += 1
                self._trace("remote.deadline", op=op,
                            attempt=attempt, stage="late")
                raise RemoteUnavailable(
                    f"{op} response from {ep.address} arrived after "
                    f"its deadline; dropped")
            if ep is not pool[0]:
                stats.failovers += 1
            stats.successes += 1
            self.retry_budget.earn()
            if span_ctx is not None and self.tracer is not None:
                self.tracer.complete(
                    _SPAN_NAMES.get(op, "remote.op"),
                    start=span_ctx.ts, op=op,
                    span=span_ctx.span_id, endpoint=ep.index)
            return response
        # exhausted: every endpoint that participated records exactly
        # one failure — per-request, per-endpoint, so a single dead
        # replica trips only its own breaker
        for ep in tried:
            ep.close()
            ep.failures += 1
            if ep.breaker.record_failure():
                stats.breaker_opens += 1
                self._trace("remote.breaker_open", op=op,
                            endpoint=ep.index)
        raise RemoteUnavailable(
            f"{op} to {self.address} failed after "
            f"{attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}")

    def _fall_back(self, op: str, error: Exception) -> None:
        self.remote_stats.fallbacks += 1
        self._trace("remote.fallback", op=op,
                    error=type(error).__name__,
                    target="local" if self.local is not None else "cold")
        if self.tracer is not None:
            self.last_flight = self.tracer.flight_dump(
                "remote-fallback", op=op, address=str(self.address),
                error=f"{type(error).__name__}: {error}")
        log.warning("shared cache unavailable for %s (%s); degrading "
                    "to %s", op, error,
                    "local repository" if self.local is not None
                    else "cold translation")

    # -- cluster-facing surface ----------------------------------------------

    def request(self, op: str, payload: Optional[Dict] = None,
                endpoints: Optional[Sequence[Endpoint]] = None,
                timeout_cap: Optional[float] = None,
                deadline: Optional[Deadline] = None,
                max_attempts: Optional[int] = None) -> Dict:
        """One raw request with the full retry/failover/breaker engine.

        Unlike the repository surface this *raises* on exhaustion — the
        cluster client (``repro.cluster.client``) owns the degradation
        ladder across shard groups and needs to see the failure.  The
        cluster's hedged pulls use ``endpoints`` (try just the primary
        first), ``timeout_cap`` (the hedge latency threshold) and
        ``deadline`` (one budget shared across primary + hedge).
        """
        return self._request(op, payload or {}, endpoints=endpoints,
                             timeout_cap=timeout_cap, deadline=deadline,
                             max_attempts=max_attempts)

    def fan_out(self, op: str,
                payload: Optional[Dict] = None) -> List[Optional[Dict]]:
        """Send one request to *every* endpoint individually.

        Returns one entry per endpoint, ``None`` where that endpoint's
        request exhausted its budget — the cluster's replicated writes
        count quorum from this.  Never raises.
        """
        results: List[Optional[Dict]] = []
        for ep in self.endpoints:
            try:
                results.append(self._request(op, payload or {},
                                             endpoints=[ep]))
            except Exception as error:  # noqa: BLE001 - per-endpoint
                # failures are the data here, not an exception
                log.debug("fan-out %s to %s failed: %s", op,
                          ep.address, error)
                results.append(None)
        return results

    def endpoint_health(self) -> List[Dict]:
        """Per-endpoint health view: breaker state + the server's own
        ``health`` answer (None for unreachable endpoints)."""
        view = []
        for ep in self.endpoints:
            entry = {
                "address": ep.address,
                "index": ep.index,
                "breaker_open": ep.breaker.is_open,
                "consecutive_failures": ep.breaker.failures,
                "failures": ep.failures,
                "successes": ep.successes,
            }
            try:
                response = self._request("health", {}, endpoints=[ep])
            except Exception as error:  # noqa: BLE001 - unreachable is
                # a legal health answer, not an error
                log.debug("health probe to %s failed: %s",
                          ep.address, error)
                entry["health"] = None
            else:
                entry["health"] = {key: value
                                   for key, value in response.items()
                                   if key != "ok"}
            # read *after* the probe so a probe that just tripped or
            # closed the breaker shows its real state
            entry["breaker"] = ep.breaker.state
            view.append(entry)
        return view

    # -- the repository surface ---------------------------------------------

    def load(self, config_fp: str, image_fp: str) -> List[Dict]:
        """Pull records for one (config, image) pair; never raises."""
        try:
            records = pulled_records(self._request(
                "pull", {"config_fp": config_fp, "image_fp": image_fp}))
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            self._fall_back("pull", error)
            if self.local is None:
                return []
            return self.local.load(config_fp, image_fp)
        self.remote_stats.records_pulled += len(records)
        return records

    def save(self, records: List[Dict], config_fp: str, image_fp: str,
             config_name: str = "", merge: bool = False) -> int:
        """Push records to the server; never raises."""
        payload = {"records": [r for r in records if r is not None],
                   "config_fp": config_fp, "image_fp": image_fp,
                   "config_name": config_name}
        if merge:
            payload["merge"] = True
        try:
            response = self._request("push", payload)
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            self.last_push = None
            self._fall_back("push", error)
            if self.local is None:
                return 0
            return self.local.save(records, config_fp, image_fp,
                                   config_name=config_name, merge=merge)
        written = response.get("written")
        written = written if isinstance(written, int) else 0
        self.last_push = {
            "written": written,
            "deduped": response.get("deduped", 0),
            "rejected": response.get("rejected", 0),
        }
        self.remote_stats.records_pushed += len(payload["records"])
        return written

    def manifest_entry_count(self, config_fp: str,
                             image_fp: str) -> Optional[int]:
        try:
            response = self._request("manifest",
                                     {"config_fp": config_fp,
                                      "image_fp": image_fp})
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            self._fall_back("manifest", error)
            if self.local is None:
                return None
            return self.local.manifest_entry_count(config_fp, image_fp)
        entries = response.get("entries")
        return entries if isinstance(entries, int) else None

    def ping(self) -> bool:
        """Liveness probe; False instead of raising."""
        try:
            self._request("ping", {})
            return True
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            log.debug("ping failed: %s", error)
            return False

    def health(self) -> Optional[Dict]:
        """The first healthy endpoint's structured ``health`` answer,
        or None when no endpoint responds."""
        try:
            response = self._request("health", {})
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            log.debug("health request failed: %s", error)
            return None
        return {key: value for key, value in response.items()
                if key != "ok"}

    def server_stats(self) -> Optional[Dict]:
        """The server's repository + request stats, or None."""
        try:
            response = self._request("stats", {})
        except Exception as error:  # noqa: BLE001 - degrade, never raise
            log.debug("stats request failed: %s", error)
            return None
        return {"repository": response.get("repository"),
                "server": response.get("server")}

    def stats(self) -> RemoteStats:
        """Client-side counters (the repository-stats analogue)."""
        return self.remote_stats


class _LeaseBusy(Exception):
    """Internal: retryable server-side contention (stale/held lease)."""


class _Overloaded(_LeaseBusy):
    """Internal: the server shed this request (``overloaded``); carries
    its ``retry_after`` pacing hint (seconds, 0.0 when absent)."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class _DeadlineExpired(Exception):
    """Internal: the request's deadline budget ran out mid-flight."""
