"""The request engine (``ReplicaSet``) as a policy machine.

Socket-level behaviour lives in ``tests/test_remote_client.py`` /
``tests/test_overload.py`` / ``tests/test_cluster.py``; here the
engine's *invariants* are searched: hypothesis scripts the outcome of
every attempt (the transport is stubbed at ``_connect`` and the two
frame calls, clock and sleep are fakes) and checks what must hold for
any schedule — bounded attempts, bounded amplification, no answer past
its deadline, fair breaker accounting, no leaked half-open probe, and
a repository surface that never raises.
"""

from __future__ import annotations

import socket
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cacheserver import CacheServer, protocol
from repro.cluster import LocalCluster
from repro.persist.format import parse_record
from repro.persist.remote import (RemoteError, RemoteRepository,
                                  ReplicaSet)

#: what one attempt can come to, as ``_attempt`` meets it on the wire
OUTCOMES = ("ok", "late", "refused", "timeout", "torn", "lease-busy",
            "overloaded", "internal", "bad-request")

BUDGET = 4.0
TIMEOUT = 2.0


class ScriptedWire:
    """Stands in for sockets: each attempt's ``_connect`` takes the next
    scripted outcome and the frame calls play it out on a fake clock."""

    def __init__(self, engine: ReplicaSet, clock) -> None:
        self.engine = engine
        self.clock = clock
        self.script = []
        self.attempts = []          # (endpoint index, socket timeout)
        self.stamped = []           # deadline_ms of each sent frame
        self.hint = 0.0

    def connect(self, ep, timeout):
        outcome = self.script.pop(0) if self.script else "ok"
        self.attempts.append((ep.index, timeout))
        if outcome == "refused":
            raise ConnectionRefusedError("scripted")
        return (outcome, timeout)

    def send(self, sock, request):
        self.stamped.append(request["deadline_ms"])

    def recv(self, sock):
        outcome, timeout = sock
        if outcome == "timeout":
            self.clock[0] += timeout
            raise socket.timeout("scripted")
        if outcome == "torn":
            raise protocol.ProtocolError("scripted torn frame")
        if outcome == "late":
            self.clock[0] += BUDGET      # intact, but past any deadline
        if outcome in ("ok", "late"):
            return protocol.ok(entries=[], objects=[], written=0)
        response = protocol.error(outcome, "scripted")
        if outcome == "overloaded":
            response["retry_after"] = self.hint
        return response

    def patched(self):
        return mock.patch.multiple(
            protocol, send_message=self.send, recv_message=self.recv)


def scripted_engine(replicas, retries, **kwargs):
    clock = [0.0]
    sleeps = []

    def sleep(seconds):
        sleeps.append((seconds, clock[0]))
        clock[0] += seconds

    engine = ReplicaSet([f"127.0.0.1:{7000 + i}" for i in range(replicas)],
                        name="g", retries=retries, timeout=TIMEOUT,
                        request_budget=BUDGET, breaker_threshold=2,
                        breaker_cooldown=1.0, clock=lambda: clock[0],
                        sleep=sleep, **kwargs)
    wire = ScriptedWire(engine, clock)
    engine._connect = wire.connect
    return engine, wire, clock, sleeps


@settings(max_examples=300, deadline=None)
@given(
    replicas=st.integers(1, 3),
    retries=st.integers(0, 4),
    hint=st.sampled_from((0.0, 0.3, 9.0)),
    requests=st.lists(
        st.tuples(st.sampled_from(("pull", "push", "ping")),
                  st.lists(st.sampled_from(OUTCOMES), max_size=5),
                  st.sampled_from((0.0, 0.5, 2.0))),
        min_size=1, max_size=8),
)
def test_any_outcome_schedule_keeps_the_engine_invariants(
        replicas, retries, hint, requests):
    engine, wire, clock, sleeps = scripted_engine(
        replicas, retries, hedge_threshold=0.5)
    wire.hint = hint
    stats = engine.remote_stats
    with wire.patched():
        for op, script, gap in requests:
            clock[0] += gap
            wire.script = list(script)
            del wire.attempts[:], wire.stamped[:], sleeps[:]
            started = clock[0]
            tokens = engine.retry_budget.tokens
            retried = stats.retries
            charged = [ep.failures for ep in engine.endpoints]
            try:
                engine.request(op)
            except RemoteError:
                answered = False
            else:
                answered = True
            assert len(wire.attempts) <= retries + 1
            assert stats.retries - retried <= tokens
            assert stats.retries - retried >= len(wire.attempts) - 1
            if answered:
                # no response is accepted after its deadline
                assert clock[0] < started + BUDGET
            for ep, before in zip(engine.endpoints, charged):
                assert ep.failures - before <= 1
            for index, timeout in wire.attempts:
                assert 0 < timeout <= TIMEOUT
            for stamp in wire.stamped:      # remaining_ms rounds up
                assert 0 < stamp <= BUDGET * 1000 + 1
            for seconds, at in sleeps:
                assert at + seconds <= started + BUDGET
            # no half-open probe is left granted: an open breaker that
            # has cooled down must still be willing to grant one
            clock[0] += 1.5
            for ep in engine.endpoints:
                if ep.breaker.is_open:
                    assert ep.breaker.allows()
                    ep.breaker.release()
    assert stats.requests == len(requests)


@settings(max_examples=100, deadline=None)
@given(
    replicas=st.integers(1, 3),
    script=st.lists(st.sampled_from(OUTCOMES), max_size=12),
)
def test_repository_surface_never_raises(replicas, script):
    clock = [0.0]
    client = RemoteRepository(
        [f"127.0.0.1:{7000 + i}" for i in range(replicas)],
        retries=2, timeout=TIMEOUT, request_budget=BUDGET,
        clock=lambda: clock[0],
        sleep=lambda s: clock.__setitem__(0, clock[0] + s))
    engine = client.groups["shard0"]
    wire = ScriptedWire(engine, clock)
    wire.script = list(script)
    engine._connect = wire.connect
    record = parse_record('{"key":"kkkkkkkk"}')
    with wire.patched():
        assert client.load("cfg", "img") == []
        assert client.save([record], "cfg", "img") == 0
        assert client.ping() in (True, False)
    stats = client.remote_stats
    assert stats.pulls == 1 and stats.pushes == 1
    assert stats.fallbacks == stats.cold_degradations <= 2


class TestHalfOpenProbe:
    """A probe is granted to the endpoint about to be tried, and to no
    other.  Regression: ``_candidates`` used to ask ``allows()`` of
    *every* cooled-down endpoint up front, so the ones the request
    never got to kept a granted-but-unused probe — and were refused
    every later one, for the life of the client."""

    def engine(self, grid, clock, **kwargs):
        return ReplicaSet(grid.spec().group("shard0").replicas,
                          timeout=0.5, breaker_threshold=1,
                          breaker_cooldown=5.0, clock=lambda: clock[0],
                          sleep=lambda _s: None, **kwargs)

    @staticmethod
    def live(answers):
        return [answer is not None for answer in answers]

    def test_unused_probe_does_not_blacklist_a_healthy_replica(
            self, tmp_path):
        clock = [0.0]
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=2) as grid:
            engine = self.engine(grid, clock, retries=0)
            grid.stop_replica("shard0", 0)
            grid.stop_replica("shard0", 1)
            assert self.live(engine.fan_out("ping")) == [False, False]
            assert all(ep.breaker.is_open for ep in engine.endpoints)
            grid.restart_replica("shard0", 0)
            grid.restart_replica("shard0", 1)
            clock[0] = 10.0             # both cooled down
            engine.request("ping")      # the primary probes and answers
            for now in (10.0, 100.0, 1000.0):
                clock[0] = now
                assert self.live(engine.fan_out("ping")) == [True, True]
            assert engine.remote_stats.breaker_short_circuits == 0
            engine.close()

    def test_probe_is_handed_back_when_the_budget_ends_the_request(
            self, tmp_path):
        clock = [0.0]
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=2) as grid:
            # two tokens: one retry for each fan-out request, then dry
            engine = self.engine(grid, clock, retries=1,
                                 retry_budget_initial=2.0,
                                 retry_budget_earn=0.0)
            grid.stop_replica("shard0", 0)
            grid.stop_replica("shard0", 1)
            engine.fan_out("ping")
            assert all(ep.breaker.is_open for ep in engine.endpoints)
            clock[0] = 10.0
            # both still down: the primary's probe fails, and the dry
            # retry bucket ends the request before any verdict
            with pytest.raises(RemoteError):
                engine.request("ping")
            assert engine.remote_stats.budget_exhausted == 1
            grid.restart_replica("shard0", 0)
            grid.restart_replica("shard0", 1)
            assert self.live(engine.fan_out("ping")) == [True, True]
            engine.close()


class TestServerErrors:
    def test_internal_answer_counts_charges_and_degrades(self, tmp_path):
        """A server whose handler raises answers ``internal``: the
        client counts it, charges that endpoint's breaker, does not
        retry, and walks the ladder."""
        with CacheServer(tmp_path / "repo") as server:
            def broken(*_args):
                raise RuntimeError("disk on fire")
            server.repository.load_stored = broken
            client = RemoteRepository(server.address, retries=3,
                                      sleep=lambda _s: None)
            assert client.load("cfg", "img") == []
            stats = client.remote_stats
            assert stats.server_errors == 1
            assert stats.retries == 0
            assert stats.fallbacks == stats.cold_degradations == 1
            endpoint, = client.groups["shard0"].endpoints
            assert endpoint.failures == 1
            assert endpoint.breaker.failures == 1
            assert server.stats.errors == 1
            client.close()
