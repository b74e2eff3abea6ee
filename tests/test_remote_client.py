"""RemoteRepository: retries, backoff, breaker, graceful degradation.

The contract under test is the robustness headline of the shared-cache
design: **no server failure may change architected results** — every
failure mode degrades to the local repository and ultimately to cold
translation, observably (counters, tracer events, flight dumps) but
silently to the program being run.
"""

import socket

import pytest

from repro.cacheserver import CacheServer
from repro.cluster import LocalCluster
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults import (
    FAULTS,
    modes_for,
    prepare_baseline,
    run_faulted,
)
from repro.isa.x86lite import assemble
from repro.obs.tracer import EventTracer
from repro.persist import (
    CircuitBreaker,
    RemoteRepository,
    ReplicaSet,
    TranslationRepository,
    WriterLease,
    parse_address,
)

LOOP = """
start:
    mov ecx, 150
    mov esi, 0
top:
    add esi, ecx
    dec ecx
    jnz top
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

NETWORK_FAULTS = ("conn-refused", "torn-frame", "slow-server",
                  "stale-lease", "corrupt-payload")


def dead_address():
    """A loopback port guaranteed to refuse connections."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def dead_client(local=None, **kwargs):
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("timeout", 0.5)
    kwargs.setdefault("sleep", lambda _s: None)
    return RemoteRepository(dead_address(), local=local, **kwargs)


class TestParseAddress:
    def test_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("/var/run/x.sock") == ("unix",
                                                    "/var/run/x.sock")
        assert parse_address("example.com:9001") == \
            ("tcp", ("example.com", 9001))
        assert parse_address(":9001") == ("tcp", ("127.0.0.1", 9001))
        assert parse_address(("10.0.0.1", 80)) == \
            ("tcp", ("10.0.0.1", 80))

    @pytest.mark.parametrize("bad", ["", "no-port-here", "host:notaport",
                                     None, 42])
    def test_rejects_unusable(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


def backoff_waits(address, requests=1, **kwargs):
    """The backoff sleeps of ``requests`` doomed pulls against a dead
    address, one list per request — the engine's observable schedule."""
    waits = []
    kwargs.setdefault("retries", 4)
    engine = ReplicaSet([address], timeout=0.5,
                        retry_budget_initial=8.0,   # the bucket's size
                        sleep=lambda s: waits[-1].append(s), **kwargs)
    for _ in range(requests):
        waits.append([])
        assert engine.ask("pull") is None
    return waits


class TestBackoff:
    def test_deterministic_across_clients(self):
        address = dead_address()
        waits_a = backoff_waits(address, requests=2)
        waits_b = backoff_waits(address, requests=2)
        assert waits_a == waits_b
        assert [len(waits) for waits in waits_a] == [4, 4]

    def test_jitter_decorrelates_requests(self):
        first, second = backoff_waits(dead_address(), requests=2)
        assert first[0] != second[0]  # same attempt, different request

    def test_capped(self):
        waits, = backoff_waits(dead_address(), retries=8,
                               backoff_base=0.05, backoff_cap=0.2)
        assert len(waits) == 8
        assert all(wait <= 0.2 for wait in waits)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=3, cooldown=10.0,
                                 clock=lambda: clock[0])
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True    # newly opened
        assert breaker.is_open
        assert not breaker.allows()

    def test_half_open_single_probe_then_close(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allows()
        clock[0] = 6.0
        assert breaker.allows()          # the one half-open probe
        assert not breaker.allows()      # second caller still blocked
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.allows()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allows()
        assert breaker.record_failure() is False   # re-opened, not new
        assert not breaker.allows()
        clock[0] = 12.0
        assert breaker.allows()          # cools down again


class TestDegradation:
    def test_load_falls_back_to_local(self, tmp_path):
        local = TranslationRepository(tmp_path / "local")
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        cold = vm.run()
        vm.save_translations(local)

        client = dead_client(local=local)
        warm_vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        warm_vm.load(assemble(LOOP))
        load = warm_vm.warm_start(client)
        warm = warm_vm.run()
        assert load.loaded > 0
        assert warm.blocks_translated == 0
        assert warm.output == cold.output
        assert client.remote_stats.successes == 0

    def test_load_without_local_acts_empty(self):
        client = dead_client()
        assert client.load("cfg", "img") == []
        assert client.fetch("cfg", "img") == ([], 0)
        assert client.ping() is False
        assert client.groups["shard0"].ask("stats") is None

    def test_save_falls_back_to_local(self, tmp_path):
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        client = dead_client(local=tmp_path / "local")
        written = vm.save_translations(client)
        assert written > 0               # landed in the local store
        assert client.local.stats().objects == written

    def test_save_without_local_returns_zero(self, tmp_path):
        vm = CoDesignedVM(vm_soft(), hot_threshold=50)
        vm.load(assemble(LOOP))
        vm.run()
        assert vm.save_translations(dead_client()) == 0

    def test_retry_budget_respected(self):
        client = dead_client(retries=3)
        client.load("cfg", "img")
        stats = client.remote_stats
        assert stats.retries == 3        # 1 try + 3 retries
        assert stats.conn_errors == 4

    def test_breaker_short_circuits_after_repeated_failure(self):
        clock = [0.0]
        client = dead_client(retries=0, breaker_threshold=2,
                             breaker_cooldown=60.0,
                             clock=lambda: clock[0])
        client.load("cfg", "img")
        client.load("cfg", "img")        # second failure opens it
        assert client.remote_stats.breaker_opens == 1
        before = client.remote_stats.conn_errors
        client.load("cfg", "img")        # never touches the socket
        assert client.remote_stats.breaker_short_circuits == 1
        assert client.remote_stats.conn_errors == before
        assert client.remote_stats.fallbacks == 3

    def test_breaker_probe_recovers_live_server(self, tmp_path):
        clock = [0.0]
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=1) as grid:
            client = RemoteRepository(
                grid.spec(), retries=0, timeout=0.5,
                breaker_threshold=1, breaker_cooldown=5.0,
                clock=lambda: clock[0], sleep=lambda _s: None)
            breaker = client.groups["shard0"].endpoints[0].breaker
            grid.stop_replica("shard0", 0)
            assert client.ping() is False    # opens the breaker
            assert breaker.is_open
            grid.restart_replica("shard0", 0)
            assert client.ping() is False    # still cooling down
            clock[0] = 10.0              # cooldown elapsed: probe allowed
            assert client.ping() is True
            assert not breaker.is_open
            client.close()

    def test_fallback_takes_flight_dump(self):
        tracer = EventTracer()
        client = dead_client()
        client.bind_tracer(tracer)
        client.load("cfg", "img")
        assert client.last_flight is not None
        assert client.last_flight["reason"] == "remote-fallback"
        assert client.last_flight["context"]["op"] == "pull"
        names = [event.name for event in tracer.events]
        assert "remote.request" in names
        assert "remote.retry" in names
        assert "remote.fallback" in names

    def test_lease_busy_retries_then_degrades(self, tmp_path):
        """A contended server lease is retryable; exhaustion goes local."""
        with CacheServer(tmp_path / "shared",
                         lease_timeout=0.05) as server:
            vm = CoDesignedVM(vm_soft(), hot_threshold=50)
            vm.load(assemble(LOOP))
            vm.run()
            client = RemoteRepository(server.address,
                                      local=tmp_path / "local",
                                      retries=2, sleep=lambda _s: None)
            with WriterLease(server.repository.root, ttl=60.0):
                written = vm.save_translations(client)
            assert written > 0                       # local fallback
            assert client.remote_stats.lease_busy == 3   # every attempt
            assert client.remote_stats.fallbacks == 1
            assert server.repository.stats().objects == 0
            assert client.local.stats().objects == written


class TestNetworkFaultInjection:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("chaos"))
        return prepare_baseline("loop", LOOP, workdir, hot_threshold=30)

    @pytest.mark.parametrize("fault", NETWORK_FAULTS)
    def test_each_class_is_survivable_at_full_rate(self, baseline,
                                                   fault):
        outcome = run_faulted(baseline, [fault], seed=11, mode="remote",
                              rate=1.0)
        assert outcome.ok, outcome.format()
        assert outcome.injected[fault] > 0
        assert outcome.stats["remote"]["requests"] > 0

    def test_cocktail_of_all_network_classes(self, baseline):
        for seed in (0, 1, 2):
            outcome = run_faulted(baseline, list(NETWORK_FAULTS), seed,
                                  mode="remote")
            assert outcome.ok, outcome.format()

    def test_mode_selection(self):
        for name in NETWORK_FAULTS:
            assert FAULTS[name].surface == "remote"
            assert modes_for([name]) == ["remote"]    # one warm boot
        assert modes_for(["io-error"]) == ["warm"]
