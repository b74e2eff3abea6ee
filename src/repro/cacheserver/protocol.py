"""Wire protocol for the translation-cache server.

One message is one *frame*::

    MAGIC(4 = b"RTC1") | length u32 BE | crc32 u32 BE | payload bytes

The payload is a JSON object (UTF-8).  The CRC covers the payload, so a
torn or bit-flipped frame is detected before JSON parsing ever sees it;
the length field is bounded so a corrupt header cannot make a peer
allocate gigabytes.  Frames are symmetric — requests and responses use
the same envelope.

Requests are ``{"op": <name>, ...}``; responses are
``{"ok": true, ...}`` or ``{"ok": false, "error": <category>,
"detail": <text>}``.  Error categories are machine-matchable (the
client's retry policy keys on them): ``lease-busy``, ``busy`` and
``overloaded`` are retryable, ``bad-request`` / ``internal`` /
``deadline-exceeded`` are not.  An ``overloaded`` response may carry a
``retry_after`` field — seconds the shedding server asks the client to
wait before retrying (docs/overload.md); clients honor it
deterministically.

Operations (see ``docs/cache_server.md`` for the full matrix):

* ``ping`` — liveness probe; echoes the server's repository root.
* ``health`` — structured liveness: shard id, role, object count,
  writer-lease state and drain status.  Smoke tools and the cluster
  client's health view key on this instead of ad-hoc pings.
* ``pull`` — one (config, image) pair's manifest ``entries`` (keys)
  and, in step with them, ``objects``: each object file's text as it
  lies on the server's disk (``null`` where unreadable), unparsed and
  unjudged.  ``persist.remote.pulled_records`` parses them; the
  loader's ``validate_record`` is the one integrity check.
* ``push`` — upload records, each as its stored text; the server
  validates each text and saves it verbatim under its writer lease
  and reports how many objects were newly written vs deduped
  against content-addressed objects other workloads already stored.
  An optional ``"merge": true`` flag unions the pushed keys with the
  manifest's existing entries (sorted, so concurrent writers converge
  on one entry list) instead of replacing the manifest wholesale —
  the cluster tier's replication and anti-entropy push this way.
* ``manifest`` — entry count only (cheap existence probe); with
  ``"keys": true`` the full sorted entry list rides along (the
  anti-entropy repair pass diffs replicas on it).
* ``stats`` — repository stats plus the server's request counters.
* ``telemetry`` — the observability scrape (``docs/observability.md``):
  the server's full metrics-registry snapshot (counters, gauges and
  pow2 latency histograms, exactly re-mergeable downstream) plus its
  bounded buffer of trace spans opened under propagated ``trace_ctx``
  frames.  Versioned (``"v"``); unknown versions get ``bad-request``.

Any request may carry a ``"trace_ctx"`` field — a
:class:`repro.obs.telemetry.TraceContext` wire dict.  The server opens
a child span under it for the duration of the handler; malformed or
unknown-version contexts are ignored (the request still runs).

Any request may also carry a ``"deadline_ms"`` field — the whole
milliseconds of request budget the client has left
(:class:`repro.persist.deadline.Deadline`).  It is *relative*, so no
cross-host clock comparison is involved.  A server receiving
``deadline_ms <= 0``, or estimating (from its own latency histograms)
that serving would outlive the budget, answers ``deadline-exceeded``
instead of doing dead work; malformed values are ignored.

This module is socket-free on purpose: everything here is pure
bytes <-> dict, so the client, the server and the tests share one
codec and the fault plane can corrupt payloads in a type-safe way.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, Tuple

MAGIC = b"RTC1"
_HEADER = struct.Struct("!4sII")
HEADER_SIZE = _HEADER.size

#: Hard bound on one frame's payload.  A full manifest of records for a
#: seed workload is ~100 KB; 64 MiB leaves room for real programs while
#: keeping a corrupt length field from looking like an allocation bomb.
MAX_PAYLOAD = 64 * 1024 * 1024

#: Error categories a server may return; the client retries only these.
#: ``lease-busy`` is writer-lease contention; ``busy`` is the
#: connection-admission guard (``--max-conns`` backpressure or a
#: draining server); ``overloaded`` is load shedding (queue-depth /
#: service-time admission control, docs/overload.md) — all three clear
#: on their own, so backing off and retrying is correct where any
#: other error is final.  ``bad-request`` means the *request* is
#: defective and ``deadline-exceeded`` means its budget is already
#: spent — retrying either only amplifies load.
RETRYABLE_ERRORS = frozenset({"lease-busy", "busy", "overloaded"})

#: Categories that indict the request, not the server: fail fast, do
#: not penalize the endpoint's circuit breaker, keep the connection.
CLIENT_FAULT_ERRORS = frozenset({"bad-request", "deadline-exceeded"})


class ProtocolError(Exception):
    """A frame failed structural validation (magic/length/CRC/JSON)."""


def encode_frame(message: Dict) -> bytes:
    """dict -> one framed message (header + JSON payload)."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode()
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame bound")
    return _HEADER.pack(MAGIC, len(payload),
                        zlib.crc32(payload)) + payload


def decode_header(header: bytes) -> Tuple[int, int]:
    """Validated (length, crc) from one raw header."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(f"short header ({len(header)} bytes)")
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame length {length} exceeds bound")
    return length, crc


def decode_payload(payload: bytes, crc: int) -> Dict:
    """Validated payload bytes -> message dict."""
    if zlib.crc32(payload) != crc:
        raise ProtocolError("payload checksum mismatch")
    try:
        message = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"payload is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("message is not an object")
    return message


def decode_frame(frame: bytes) -> Dict:
    """One complete in-memory frame -> message dict (tests/tools)."""
    length, crc = decode_header(frame[:HEADER_SIZE])
    payload = frame[HEADER_SIZE:]
    if len(payload) != length:
        raise ProtocolError(
            f"payload length {len(payload)} != header {length}")
    return decode_payload(payload, crc)


# -- socket helpers ----------------------------------------------------------

def recv_exactly(sock, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on a mid-frame EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/"
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock, message: Dict) -> None:
    sock.sendall(encode_frame(message))


def recv_message(sock) -> Dict:
    length, crc = decode_header(recv_exactly(sock, HEADER_SIZE))
    return decode_payload(recv_exactly(sock, length), crc)


# -- response envelopes ------------------------------------------------------

def ok(**fields) -> Dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error(category: str, detail: str = "") -> Dict:
    return {"ok": False, "error": category, "detail": detail}
