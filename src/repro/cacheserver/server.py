"""The shared translation-cache server.

One :class:`CacheServer` wraps one on-disk
:class:`~repro.persist.TranslationRepository` and serves it to many VM
instances over a Unix or TCP socket (length-prefixed JSON frames, see
:mod:`repro.cacheserver.protocol`).  This is the paper's
server-consolidation scenario made concrete: N instances booting the
same images amortize one translation pass through one warm store.

Design points:

* **thread-per-connection** (``socketserver.ThreadingMixIn``) with
  persistent connections — a client keeps one socket open across its
  manifest/pull/push sequence;
* **writes go through the repository's writer lease**, so handler
  threads, other server processes and direct local savers all
  serialize identically; a contended lease surfaces to the client as a
  retryable ``lease-busy`` error instead of a torn manifest;
* **server-side validation on the way in only**: a push ships each
  record's stored text; the server validates it (field types, content
  key hashed over the text) before it touches the store and writes it
  verbatim, so one corrupt client cannot poison the cache other
  instances pull from; a pull ships objects as stored and leaves the
  judging to the loader that installs them;
* **dedup is inherent and reported**: objects are content-addressed,
  so a push whose records were already stored by another workload
  (shared library code) writes nothing and the response says how many
  records were deduplicated;
* the server **never trusts the network**: any protocol violation on a
  connection answers with an error frame when possible and drops the
  connection, never the process;
* **bounded and drainable**: ``max_conns`` rejects excess connections
  with a retryable ``busy`` error instead of piling up handler
  threads, and :meth:`CacheServer.drain` (the ``repro serve``
  SIGTERM/SIGINT path) finishes in-flight requests — releasing any
  held writer lease — before closing, so mass-boot fleets shut down
  cleanly;
* **admission control and load shedding** (docs/overload.md):
  ``max_queue_depth`` bounds concurrently *dispatching* requests; an
  excess store op answers a retryable ``overloaded`` error carrying a
  deterministic ``retry_after`` pacing hint instead of queueing
  without bound.  Requests arriving with a spent ``deadline_ms``
  budget — or whose estimated service time (the op's own p95 latency
  histogram) exceeds the budget — answer ``deadline-exceeded``
  instead of doing work nobody will consume.  Observability ops
  (ping/health/telemetry/stats) are never shed, so operators can see
  *into* an overloaded server.

The server is deliberately dumb about *correctness* of translations —
every client re-fingerprints sources and rebuilds every record with its
own translators at load, so a stale or hostile server can waste a
client's time but never change its architected results.
"""

from __future__ import annotations

import contextlib
import logging
import selectors
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional

from repro.cacheserver import protocol
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    DEFAULT_MAX_SPANS,
    TELEMETRY_VERSION,
    SpanBuffer,
    TraceContext,
)
from repro.persist.format import (
    PersistFormatError,
    parse_record,
    validate_record,
)
from repro.persist.repository import TranslationRepository

log = logging.getLogger("repro.cacheserver")

#: Latency percentiles the stats op / fleet report surface.
_LATENCY_PERCENTILES = (50, 95, 99)

#: Seconds a connection may sit idle between frames before its handler
#: thread gives it up.
CONNECTION_TIMEOUT = 30.0

#: Store ops subject to queue-depth shedding.  Observability ops stay
#: admissible under overload on purpose — shedding the telemetry
#: scrape would blind the monitor exactly when it matters most.
_SHEDDABLE_OPS = frozenset({"pull", "push", "manifest"})

#: Minimum latency-histogram samples before the estimated-service-time
#: admission check trusts the p95 (cold histograms reject nothing).
_SERVICE_EST_MIN_SAMPLES = 32

#: Every way the server turns work away, one row per decision
#: (docs/overload.md has the conditions): the error category answered
#: (``protocol.RETRYABLE_ERRORS`` says which a client may retry), the
#: ``ServerStats`` counter, the answer's detail.
_REJECTIONS = {
    "busy": ("busy", "conns_rejected",
             "connection limit reached or server draining"),
    "expired": ("deadline-exceeded", "deadline_rejected",
                "request budget already spent "
                "({deadline_ms} ms remaining)"),
    "estimate": ("deadline-exceeded", "deadline_rejected",
                 "estimated {op} service time {estimate_ms:.1f} ms "
                 "exceeds the {deadline_ms} ms budget"),
    "depth": ("overloaded", "requests_shed",
              "queue depth {depth} over bound {bound}"),
}


@dataclass
class ServerStats:
    """Thread-safe request counters + per-op latency histograms.

    The fields are the counters, bumped under the lock by
    :meth:`count`; :meth:`to_dict` and the wire snapshot (as
    ``server_<field>`` series) are derived from them.  Per-op request
    counts are labeled ``server_requests`` counter series in an owned
    :class:`~repro.obs.metrics.MetricsRegistry`, and
    :meth:`observe_latency` feeds pow2 ``server_op_latency_ms``
    histograms whose p50/p95/p99 the ``stats`` op and the fleet
    report's server-load section read.  Latency is wall-clock by
    nature, so report consumers keep it out of canonical (byte-stable)
    documents.
    """

    errors: int = 0
    connections: int = 0
    conns_rejected: int = 0
    records_served: int = 0
    records_received: int = 0
    objects_deduped: int = 0
    records_rejected: int = 0
    lease_busy: int = 0
    requests_shed: int = 0
    deadline_rejected: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()

    def _counters(self) -> Dict[str, int]:
        return {counter.name: getattr(self, counter.name)
                for counter in fields(self)}

    def count(self, attr: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    def count_request(self, op: str) -> None:
        with self._lock:
            self.metrics.counter("server_requests", op=op).inc()

    def observe_latency(self, op: str, ms: float) -> None:
        with self._lock:
            self.metrics.histogram("server_op_latency_ms",
                                   op=op).observe(ms)

    def latency_percentile(self, op: str, q: int,
                           min_count: int = 1) -> Optional[float]:
        """The op's latency percentile in ms, or None before
        ``min_count`` samples exist (admission control reads the p95
        as its service-time estimate)."""
        with self._lock:
            for series in self.metrics:
                if series.name == "server_op_latency_ms" \
                        and series.labels.get("op") == op:
                    if series.count >= min_count:
                        return series.percentile(q)
                    return None
        return None

    def registry_snapshot(self) -> Dict:
        """The full flat metrics snapshot the wire ``telemetry`` op
        ships — counters as numbers, histograms as re-mergeable bucket
        dicts (:func:`repro.obs.telemetry.merge_snapshots`)."""
        with self._lock:
            snapshot = self.metrics.snapshot()
            snapshot.update((f"server_{name}", value)
                            for name, value in self._counters().items())
        return dict(sorted(snapshot.items()))

    @property
    def requests(self) -> Dict[str, int]:
        """Per-op request counts (a snapshot dict, sorted by op)."""
        with self._lock:
            return self._requests()

    def _requests(self) -> Dict[str, int]:
        return {series.labels["op"]: series.value
                for series in self.metrics
                if series.name == "server_requests"}

    def _latency(self) -> Dict[str, Dict]:
        summary: Dict[str, Dict] = {}
        for series in self.metrics:
            if series.name != "server_op_latency_ms":
                continue
            entry = {"count": series.count, "mean": series.mean,
                     "min": series.min, "max": series.max}
            for q in _LATENCY_PERCENTILES:
                entry[f"p{q}"] = series.percentile(q)
            summary[series.labels["op"]] = entry
        return summary

    def to_dict(self) -> Dict:
        with self._lock:
            return {"requests": self._requests(), **self._counters(),
                    "latency": self._latency()}


class _Handler(socketserver.BaseRequestHandler):
    """One connection: loop request frames until the client hangs up."""

    def handle(self) -> None:   # pragma: no cover - exercised via sockets
        server: CacheServer = self.server.cache_server
        sock = self.request
        sock.settimeout(CONNECTION_TIMEOUT)
        if not server._admit(sock):
            # backpressure/drain rejection: answer, then drop the
            # connection
            self._try_send(sock, server._reject("busy"))
            return
        server.stats.count("connections")
        try:
            while True:
                try:
                    first = sock.recv(1)
                except (socket.timeout, OSError):
                    return
                if not first:
                    return          # clean EOF between frames
                try:
                    header = first + protocol.recv_exactly(
                        sock, protocol.HEADER_SIZE - 1)
                    length, crc = protocol.decode_header(header)
                    payload = protocol.recv_exactly(sock, length)
                    request = protocol.decode_payload(payload, crc)
                except protocol.ProtocolError as error:
                    server.stats.count("errors")
                    log.warning("dropping connection: %s", error)
                    self._try_send(sock, protocol.error("bad-request",
                                                        str(error)))
                    return
                except (socket.timeout, OSError):
                    return
                response = server.dispatch(request)
                if not self._try_send(sock, response):
                    return
                if server.draining:
                    return          # in-flight request finished; close
        finally:
            server._release(sock)

    @staticmethod
    def _try_send(sock, message: Dict) -> bool:
        try:
            protocol.send_message(sock, message)
            return True
        except OSError:
            return False


class _TCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):
    class _UnixServer(socketserver.ThreadingMixIn,
                      socketserver.UnixStreamServer):
        daemon_threads = True
else:                                                # pragma: no cover
    _UnixServer = None


class CacheServer:
    """Serve one translation repository over a Unix or TCP socket."""

    def __init__(self, repository, socket_path=None,
                 host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = 5.0,
                 max_conns: Optional[int] = None,
                 shard_id: str = "", role: str = "primary",
                 max_queue_depth: Optional[int] = None,
                 shed_retry_after: float = 0.05) -> None:
        if isinstance(repository, TranslationRepository):
            self.repository = repository
        else:
            self.repository = TranslationRepository(repository)
        #: cluster identity (``repro.cluster``): which shard group this
        #: server holds and its role within the group's replica set.
        #: Standalone servers keep the empty shard id.
        self.shard_id = shard_id
        self.role = role
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        #: admission bound on concurrent connections (None = unlimited);
        #: excess clients get a retryable ``busy`` error instead of an
        #: unbounded handler-thread pile-up
        self.max_conns = max_conns
        #: admission bound on concurrently *dispatching* store requests
        #: (None = unlimited); an excess pull/push/manifest answers the
        #: retryable ``overloaded`` error with a ``retry_after`` hint
        #: of ``shed_retry_after`` seconds per excess request — a
        #: deterministic, depth-proportional pacing signal
        self.max_queue_depth = max_queue_depth
        self.shed_retry_after = shed_retry_after
        self.stats = ServerStats()
        #: bounded buffer of spans opened under propagated trace
        #: contexts; the wire ``telemetry`` op ships it to collectors
        self.spans = SpanBuffer()
        self._server: Optional[socketserver.BaseServer] = None
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[tuple] = None  # accept loop's (read, write)
        #: serializes pushes in-process so the lease_failures delta
        #: check below cannot be confused by a sibling handler thread
        self._push_lock = threading.Lock()
        #: guards the dispatch-depth gauge the shed check reads
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        #: guards the connection-admission state below (and doubles as
        #: the condition drain() waits on)
        self._conn_lock = threading.Condition()
        self._active_conns = 0
        self._conn_socks: set = set()
        self._draining = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        """Connectable address string (``unix:<path>`` or ``host:port``)."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def start(self) -> str:
        """Bind and serve in a daemon thread; returns the address."""
        if self._server is None:
            self._bind()
            self._wake = socket.socketpair()
            self._thread = threading.Thread(
                target=self._accept_loop,
                args=(self._server, self._wake[0]),
                name="cacheserver", daemon=True)
            self._thread.start()
        return self.address

    @staticmethod
    def _accept_loop(server, wake) -> None:
        """Accept until :meth:`signal_stop` writes to ``wake``; the
        wait has no timeout, so an idle server makes no wake-ups."""
        with selectors.DefaultSelector() as selector:
            selector.register(server, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            while wake not in [key.fileobj for key, _ in selector.select()]:
                server._handle_request_noblock()

    def _bind(self) -> None:
        """Bind the listener and announce it."""
        if self.socket_path is not None:
            if _UnixServer is None:          # pragma: no cover
                raise RuntimeError("unix sockets unsupported here; "
                                   "use a TCP port")
            Path(self.socket_path).parent.mkdir(parents=True,
                                                exist_ok=True)
            with contextlib.suppress(OSError):
                Path(self.socket_path).unlink()
            self._server = _UnixServer(self.socket_path, _Handler,
                                       bind_and_activate=True)
        else:
            self._server = _TCPServer((self.host, self.port), _Handler,
                                      bind_and_activate=True)
            self.port = self._server.server_address[1]
        self._server.cache_server = self
        log.info("cache server for %s listening on %s",
                 self.repository.root, self.address)

    def signal_stop(self) -> None:
        """Tell the accept loop to exit, without waiting for it as
        :meth:`stop` does (a cluster signals all before it waits)."""
        wake = self._wake
        if wake is not None:
            with contextlib.suppress(OSError):
                wake[1].send(b"\0")

    def stop(self) -> None:
        """Stop accepting and close the listener, as soon as the accept
        loop has seen the signal; established connections drain in their
        handler threads.  Idempotent, safe before :meth:`start` and from
        any thread but the accept thread."""
        self.signal_stop()
        with self._conn_lock:
            server, self._server = self._server, None
            thread, self._thread = self._thread, None
            wake, self._wake = self._wake, None
        if server is None:
            return
        thread.join()
        server.server_close()
        for end in wake:
            end.close()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                Path(self.socket_path).unlink()

    def kill(self) -> None:
        """Hard-stop: close the listener *and* sever every established
        connection — the in-process model of ``kill -9``.  A plain
        :meth:`stop` leaves persistent connections draining in their
        handler threads, which is graceful-restart behaviour; a crashed
        process answers nothing, so cluster failure drills
        (``LocalCluster.stop_replica``) use this."""
        self.stop()
        self._sever_connections()

    def _sever_connections(self) -> None:
        """Cut every established connection; its handler thread sees
        the socket die and releases it."""
        with self._conn_lock:
            socks = list(self._conn_socks)
        for sock in socks:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    # -- connection admission / graceful drain ------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def active_connections(self) -> int:
        with self._conn_lock:
            return self._active_conns

    def _admit(self, sock) -> bool:
        """One connection asks to be served; False = reject (busy)."""
        with self._conn_lock:
            if self._draining:
                return False
            if self.max_conns is not None \
                    and self._active_conns >= self.max_conns:
                return False
            self._active_conns += 1
            self._conn_socks.add(sock)
            return True

    def _release(self, sock) -> None:
        with self._conn_lock:
            self._active_conns -= 1
            self._conn_socks.discard(sock)
            self._conn_lock.notify_all()

    def drain(self, grace: float = 5.0) -> bool:
        """Graceful shutdown (the SIGTERM/SIGINT path of ``repro
        serve``): stop accepting, reject new connections with the
        retryable ``busy`` error, let every in-flight request finish
        and flush its response — a push holding the writer lease
        releases it when the save completes — then stop the server.

        Persistent connections close right after their current frame;
        a connection sitting idle past ``grace`` seconds is cut.
        Returns True when every connection finished inside ``grace``.
        """
        with self._conn_lock:
            self._draining = True
        self.stop()     # no new accepts: the port refuses from here on
        with self._conn_lock:
            clean = self._conn_lock.wait_for(
                lambda: self._active_conns == 0, timeout=grace)
            if not clean:
                # idle persistent connections never send another
                # frame; cut them so handler threads cannot leak
                self._sever_connections()
                self._conn_lock.wait_for(
                    lambda: self._active_conns == 0, timeout=1.0)
        log.info("cache server drained %s (%s)", self.address,
                 "clean" if clean else "idle connections cut")
        return clean

    def __enter__(self) -> "CacheServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request dispatch ---------------------------------------------------

    def _reject(self, decision: str, **facts) -> Dict:
        """The one exit of every admission decision: count it and
        phrase the error answer from its ``_REJECTIONS`` row.
        ``facts`` fill the detail; a ``retry_after`` pacing hint among
        them goes into the answer too."""
        category, counter, detail = _REJECTIONS[decision]
        self.stats.count(counter)
        response = protocol.error(category, detail.format(**facts))
        if "retry_after" in facts:
            response["retry_after"] = facts["retry_after"]
        return response

    def _admission_check(self, op: str, request: Dict,
                         depth: int) -> Optional[Dict]:
        """Admission control (docs/overload.md); an error response to
        send instead of dispatching, or None to admit.

        Two independent guards: (1) work whose ``deadline_ms`` budget
        is spent — or would be spent by this op's estimated service
        time (own p95) — answers the *non*-retryable
        ``deadline-exceeded``, because retrying a dead request only
        amplifies load; (2) store ops past ``max_queue_depth`` answer
        the *retryable* ``overloaded`` with a deterministic
        depth-proportional ``retry_after`` pacing hint.
        """
        deadline_ms = request.get("deadline_ms")
        if isinstance(deadline_ms, bool) or \
                not isinstance(deadline_ms, (int, float)):
            deadline_ms = None          # malformed/absent: ignored
        if deadline_ms is not None:
            if deadline_ms <= 0:
                return self._reject("expired", deadline_ms=deadline_ms)
            estimate = self.stats.latency_percentile(
                op, 95, min_count=_SERVICE_EST_MIN_SAMPLES)
            if estimate is not None and estimate > deadline_ms:
                return self._reject("estimate", op=op,
                                    deadline_ms=deadline_ms,
                                    estimate_ms=estimate)
        if self.max_queue_depth is not None \
                and op in _SHEDDABLE_OPS \
                and depth > self.max_queue_depth:
            excess = depth - self.max_queue_depth
            return self._reject(
                "depth", op=op, depth=depth, bound=self.max_queue_depth,
                retry_after=round(self.shed_retry_after * excess, 6))
        return None

    def dispatch(self, request: Dict) -> Dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) \
            if isinstance(op, str) else None
        if handler is None:
            self.stats.count("errors")
            return protocol.error("bad-request", f"unknown op {op!r}")
        self.stats.count_request(op)
        # distributed tracing: a request stamped with a trace context
        # runs inside a child span; the span closes on every path (the
        # SpanBuffer context manager guarantees it) and an error
        # response or handler exception marks it ``error``
        context = TraceContext.from_wire(request.get("trace_ctx"))
        started = time.perf_counter()
        with self._inflight_lock:
            self._inflight += 1
            depth = self._inflight
        admitted = False
        try:
            rejection = self._admission_check(op, request, depth)
            if rejection is not None:
                return rejection
            admitted = True
            if context is None:
                return handler(request)
            with self.spans.span("server.op", context, op=op,
                                 shard=self.shard_id,
                                 role=self.role) as span:
                response = handler(request)
                if not response.get("ok", False):
                    span["status"] = "error"
                return response
        except Exception as error:   # noqa: BLE001 - the connection
            # must get an answer and the server must outlive any bug
            self.stats.count("errors")
            log.exception("op %s failed", op)
            return protocol.error(
                "internal", f"{type(error).__name__}: {error}")
        finally:
            with self._inflight_lock:
                self._inflight -= 1
            # a rejection took microseconds and served nothing: in the
            # histogram it would drag down the very p95 the estimate
            # gate reads as "service time"
            if admitted:
                self.stats.observe_latency(
                    op, (time.perf_counter() - started) * 1000.0)

    @staticmethod
    def _fingerprints(request: Dict):
        config_fp = request.get("config_fp")
        image_fp = request.get("image_fp")
        if not isinstance(config_fp, str) or not isinstance(image_fp, str):
            return None
        return config_fp, image_fp

    def _op_ping(self, request: Dict) -> Dict:
        return protocol.ok(root=str(self.repository.root))

    def _identity(self) -> Dict:
        """Who this server is and what it holds — the block the
        ``health`` and ``telemetry`` answers share."""
        return {"shard_id": self.shard_id, "role": self.role,
                "address": self.address,
                "objects": len(self.repository._load_meta()["objects"]),
                "draining": self.draining}

    def _op_health(self, request: Dict) -> Dict:
        """Structured liveness: shard identity + store + lease state.

        Smoke tools and the cluster client's per-endpoint health view
        poll this instead of ad-hoc pings — one frame answers "who are
        you, how much do you hold, can you take writes right now".
        """
        lease = self.repository.writer_lease()
        body = lease._read()
        held = body is not None
        return protocol.ok(
            **self._identity(),
            lease={"held": held,
                   "holder": body.get("holder") if held else None,
                   "expired": lease._expired() if held else False})

    def _op_telemetry(self, request: Dict) -> Dict:
        """The observability scrape: identity + the full metrics
        snapshot + the bounded span buffer.

        :class:`repro.obs.collector.ClusterCollector` polls this on
        every replica of every shard and re-merges the snapshots
        exactly (pow2 buckets sum bound-by-bound).  Versioned so a
        future collector cannot misinterpret an old server: an unknown
        ``"v"`` answers ``bad-request`` instead of guessing.
        """
        version = request.get("v")
        if version != TELEMETRY_VERSION:
            return protocol.error(
                "bad-request",
                f"unsupported telemetry version {version!r} "
                f"(this server speaks {TELEMETRY_VERSION})")
        max_spans = request.get("max_spans", DEFAULT_MAX_SPANS)
        if isinstance(max_spans, bool) or \
                not isinstance(max_spans, int) or max_spans < 0:
            return protocol.error("bad-request",
                                  f"bad max_spans {max_spans!r}")
        return protocol.ok(
            version=TELEMETRY_VERSION,
            **self._identity(),
            metrics=self.stats.registry_snapshot(),
            spans=self.spans.to_wire(max_spans))

    def _op_manifest(self, request: Dict) -> Dict:
        pair = self._fingerprints(request)
        if pair is None:
            return protocol.error("bad-request", "missing fingerprints")
        # one read: the count and the keys are of the same manifest
        manifest = self.repository._read_manifest(*pair)
        entries = manifest.get("entries", ()) if manifest else ()
        response = protocol.ok(
            entries=None if manifest is None else len(entries))
        if request.get("keys"):
            response["keys"] = sorted(key for key in entries
                                      if isinstance(key, str))
        return response

    def _op_pull(self, request: Dict) -> Dict:
        pair = self._fingerprints(request)
        if pair is None:
            return protocol.error("bad-request", "missing fingerprints")
        # a store only stores: one manifest read, each object shipped as
        # it lies on disk; the loader that installs a record judges it
        entries, objects = self.repository.load_stored(*pair)
        self.stats.count("records_served",
                         len(objects) - objects.count(None))
        return protocol.ok(entries=entries, objects=objects)

    def _op_push(self, request: Dict) -> Dict:
        pair = self._fingerprints(request)
        records = request.get("records")
        if pair is None or not isinstance(records, list):
            return protocol.error("bad-request",
                                  "missing fingerprints or records")
        valid = []
        rejected = 0
        for text in records:
            record = parse_record(text)
            try:
                validate_record(record)
            except PersistFormatError:
                rejected += 1
                continue
            valid.append(record)
        self.stats.count("records_received", len(records))
        self.stats.count("records_rejected", rejected)
        config_name = request.get("config_name")
        if not isinstance(config_name, str):
            config_name = ""
        with self._push_lock:
            failures_before = self.repository.lease_failures
            # an anti-entropy heal also rewrites a pushed record whose
            # stored copy is not the (validated) text pushed: the plain
            # save would skip it as a dedup
            written = self.repository.save(
                valid, *pair, config_name=config_name,
                lease_timeout=self.lease_timeout,
                merge=bool(request.get("merge")),
                repair=bool(request.get("repair")))
            lease_failed = \
                self.repository.lease_failures > failures_before
        if lease_failed:
            self.stats.count("lease_busy")
            return protocol.error(
                "lease-busy",
                "another writer holds the repository lease")
        deduped = max(0, len(valid) - written)
        self.stats.count("objects_deduped", deduped)
        return protocol.ok(written=written, deduped=deduped,
                           rejected=rejected)

    def _op_stats(self, request: Dict) -> Dict:
        stats = self.repository.stats()
        return protocol.ok(
            repository={
                "root": stats.root,
                "objects": stats.objects,
                "total_bytes": stats.total_bytes,
                "clock": stats.clock,
                "manifests": stats.manifests,
            },
            server=self.stats.to_dict())
