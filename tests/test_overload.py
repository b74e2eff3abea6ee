"""Overload-protection control plane (docs/overload.md): deadline
propagation, retry budgets, admission control / shedding, hedged reads.

Live-socket pieces use a real :class:`CacheServer` (or a 1x2
:class:`LocalCluster`) on loopback; pure-logic pieces (the deadline
arithmetic, the token bucket, jitter decorrelation, the admission
check) run against injectable clocks so nothing here waits out a real
backoff.
"""

from __future__ import annotations

import pytest

from repro.cacheserver import CacheServer, protocol
from repro.cluster import ClusterRepository, LocalCluster
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults.harness import prepare_baseline, run_faulted
from repro.faults.injector import FaultInjector
from repro.faults.plane import injecting
from repro.fleet import FleetEngine, FleetScenario
from repro.isa.x86lite import assemble
from repro.lint import LintEngine
from repro.obs.telemetry import TraceContext
from repro.obs.tracer import EventTracer
from repro.persist.deadline import Deadline, RetryBudget
from repro.persist.remote import (RemoteRejected, RemoteRepository,
                                  RemoteUnavailable, ReplicaSet)
from repro.workloads.programs import PROGRAMS
from tests.test_remote_client import backoff_waits, dead_address


def dead_engine(address=None, **kwargs):
    """A request engine whose only replica refuses connections."""
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("timeout", 0.5)
    kwargs.setdefault("sleep", lambda _s: None)
    return ReplicaSet([address or dead_address()], **kwargs)


# -- deadline + retry budget primitives ---------------------------------------


class TestDeadline:
    def test_remaining_tracks_injected_clock(self):
        clock = [10.0]
        deadline = Deadline.after(2.0, lambda: clock[0])
        assert deadline.remaining() == pytest.approx(2.0)
        clock[0] = 11.5
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock[0] = 12.5
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_remaining_ms_rounds_up(self):
        clock = [0.0]
        deadline = Deadline.after(0.0004, lambda: clock[0])
        # a tiny positive budget must not wire as 0 (the server would
        # treat it as already expired)
        assert deadline.remaining_ms() == 1

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0, lambda: 0.0)


class TestRetryBudget:
    def test_spend_and_earn(self):
        budget = RetryBudget(capacity=4.0, earn_rate=0.5, initial=1.0)
        assert budget.spend()
        assert not budget.spend()          # bucket empty
        assert budget.exhaustions == 1
        budget.earn()
        budget.earn()
        assert budget.spend()              # two successes bought one
        assert budget.spent == 2

    def test_earn_caps_at_capacity(self):
        budget = RetryBudget(capacity=1.0, earn_rate=0.5, initial=1.0)
        budget.earn()
        assert budget.tokens == 1.0

    def test_amplification_bounded_under_total_failure(self):
        # the metastability property: a client hammered by failures
        # can never retry more than initial + earned tokens
        budget = RetryBudget(capacity=8.0, earn_rate=0.5, initial=3.0)
        retries = sum(budget.spend() for _ in range(100))
        assert retries == 3


# -- error-category classification (satellite 1) ------------------------------


class TestErrorClassification:
    def test_category_sets_are_disjoint(self):
        assert not (protocol.RETRYABLE_ERRORS
                    & protocol.CLIENT_FAULT_ERRORS)
        assert "overloaded" in protocol.RETRYABLE_ERRORS
        assert "bad-request" in protocol.CLIENT_FAULT_ERRORS
        assert "deadline-exceeded" in protocol.CLIENT_FAULT_ERRORS

    def test_malformed_push_fails_fast_without_burning_retries(
            self, tmp_path):
        """Regression: a malformed push used to burn the full retry
        schedule on an error no retry can fix."""
        with CacheServer(tmp_path / "repo") as server:
            client = ReplicaSet([server.address], retries=3,
                                sleep=lambda _s: None)
            with pytest.raises(RemoteRejected):
                client.request("push", {"records": [],
                                        "config_fp": 123,
                                        "image_fp": None})
            stats = client.remote_stats
            assert stats.retries == 0
            assert stats.rejected_fast == 1
            assert client.endpoints[0].breaker.failures == 0
            # the connection survives a fail-fast rejection
            assert client.ping()
            client.close()

    def test_retryable_categories_still_retry(self, tmp_path):
        client = dead_engine(retries=2)
        with pytest.raises(RemoteUnavailable):
            client.request("pull", {"config_fp": "c", "image_fp": "i"})
        assert client.remote_stats.retries == 2
        client.close()


# -- jitter decorrelation (satellite 2) ---------------------------------------


class TestJitterDecorrelation:
    def test_backoff_deterministic_for_same_inputs(self):
        address = dead_address()
        one, = backoff_waits(address, retries=3, jitter_seed=3)
        two, = backoff_waits(address, retries=3, jitter_seed=3)
        assert len(one) == 3 and one == two

    def test_backoff_decorrelates_across_endpoints_and_seeds(self):
        addresses = [dead_address() for _ in range(3)]
        by_endpoint = {backoff_waits(address, jitter_seed=0)[0][0]
                       for address in addresses}
        assert len(by_endpoint) == 3      # per-endpoint decorrelation
        assert backoff_waits(addresses[0], jitter_seed=0) != \
            backoff_waits(addresses[0], jitter_seed=1)

    def test_backoff_grows_with_attempt_and_respects_cap(self):
        values, = backoff_waits(dead_address(), retries=8,
                                backoff_base=0.1, backoff_cap=0.3)
        assert len(values) == 8
        assert all(value <= 0.3 for value in values)
        assert values[0] < values[-1] == 0.3      # cap reached


# -- deadline propagation -----------------------------------------------------


class TestDeadlinePropagation:
    def test_client_stops_retrying_past_deadline(self):
        clock = [0.0]
        client = dead_engine(
            retries=10, request_budget=1.0,
            retry_budget_initial=8.0,
            clock=lambda: clock[0],
            sleep=lambda s: clock.__setitem__(0, clock[0] + s))
        with pytest.raises(RemoteUnavailable) as excinfo:
            client.request("pull", {"config_fp": "c", "image_fp": "i"})
        assert "deadline" in str(excinfo.value)
        assert client.remote_stats.deadline_exceeded == 1
        # the deadline indicts the budget, not the endpoint: the
        # breaker must not have eaten the exhaustion as a failure spree
        assert client.remote_stats.retries < 10
        client.close()

    def test_server_rejects_expired_deadline(self, tmp_path):
        with CacheServer(tmp_path / "repo") as server:
            response = server.dispatch({"op": "pull",
                                        "config_fp": "c",
                                        "image_fp": "i",
                                        "deadline_ms": 0})
            assert response["error"] == "deadline-exceeded"
            assert server.stats.deadline_rejected == 1

    def test_server_ignores_malformed_deadline(self, tmp_path):
        with CacheServer(tmp_path / "repo") as server:
            for bogus in ("soon", True, None, [1]):
                response = server.dispatch({"op": "pull",
                                            "config_fp": "c",
                                            "image_fp": "i",
                                            "deadline_ms": bogus})
                assert response.get("error") != "deadline-exceeded"
            assert server.stats.deadline_rejected == 0

    def test_requests_carry_deadline_ms(self, tmp_path):
        seen = {}
        with CacheServer(tmp_path / "repo") as server:
            original = server.dispatch

            def spy(request):
                seen.setdefault("deadline_ms",
                                request.get("deadline_ms"))
                return original(request)

            server.dispatch = spy
            client = RemoteRepository(server.address, local=None,
                                      request_budget=5.0)
            client.ping()
            client.close()
        assert isinstance(seen["deadline_ms"], int)
        assert 0 < seen["deadline_ms"] <= 5000


# -- admission control & shedding ---------------------------------------------


class TestAdmissionControl:
    def test_queue_depth_shed_carries_retry_after(self, tmp_path):
        server = CacheServer(tmp_path / "repo", max_queue_depth=1,
                             shed_retry_after=0.1)
        response = server._admission_check(
            "pull", {"op": "pull"}, depth=4)
        assert response["error"] == "overloaded"
        assert response["retry_after"] == pytest.approx(0.3)
        assert server.stats.requests_shed == 1

    def test_observability_ops_never_shed(self, tmp_path):
        server = CacheServer(tmp_path / "repo", max_queue_depth=1)
        for op in ("health", "metrics", "ping"):
            assert server._admission_check(
                op, {"op": op}, depth=100) is None
        assert server.stats.requests_shed == 0

    def test_unbounded_server_never_sheds(self, tmp_path):
        server = CacheServer(tmp_path / "repo")
        assert server._admission_check(
            "pull", {"op": "pull"}, depth=10_000) is None

    def test_rejections_stay_out_of_the_service_estimate(self, tmp_path):
        """Only requests that reached their handler feed the latency
        histogram whose p95 the estimate gate reads as service time."""
        server = CacheServer(tmp_path / "repo", max_queue_depth=0)
        pull = {"op": "pull", "config_fp": "c", "image_fp": "i"}
        for _ in range(5):      # depth 1 > bound 0: every pull sheds
            assert server.dispatch(pull)["error"] == "overloaded"
        server.max_queue_depth = None
        assert server.dispatch(dict(pull, deadline_ms=0))["error"] == \
            "deadline-exceeded"
        for _ in range(2):
            assert server.dispatch(pull)["ok"]
        assert server.stats.requests["pull"] == 8
        assert server.stats.to_dict()["latency"]["pull"]["count"] == 2

    def test_client_honors_retry_after_hint(self, tmp_path):
        """Injected sheds: the client must sleep at least the server's
        hint (not just its own backoff) before the next attempt."""
        sleeps = []
        with CacheServer(tmp_path / "repo") as server:
            client = ReplicaSet([server.address], retries=2,
                                backoff_base=0.001, sleep=sleeps.append)
            injector = FaultInjector(5, ["server-overloaded"],
                                     rate=1.0)
            with injecting(injector):
                with pytest.raises(RemoteUnavailable):
                    client.request("pull", {"config_fp": "c",
                                            "image_fp": "i"})
            assert client.remote_stats.sheds >= 1
            # injected sheds advertise retry_after = backoff_base
            assert sleeps and all(s >= 0.001 for s in sleeps)
            client.close()

    def test_budget_exhaustion_degrades_immediately(self):
        client = dead_engine(retries=10, retry_budget_initial=1.0,
                             retry_budget_earn=0.0)
        with pytest.raises(RemoteUnavailable) as excinfo:
            client.request("pull", {"config_fp": "c", "image_fp": "i"})
        assert "retry budget" in str(excinfo.value)
        assert client.remote_stats.retries == 1
        assert client.remote_stats.budget_exhausted == 1
        client.close()


# -- hedged reads -------------------------------------------------------------


def _primed_cluster_client(tmp_path, **kwargs):
    grid = LocalCluster(tmp_path / "grid", shards=1, replicas=2)
    spec = grid.start()
    primer = ClusterRepository(spec, local=None, retries=2,
                               breaker_cooldown=0.0,
                               sleep=lambda _s: None)
    vm = CoDesignedVM(vm_soft(), hot_threshold=20)
    vm.load(assemble(PROGRAMS["fibonacci"]))
    vm.run()
    vm.save_translations(primer)
    primer.close()
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("breaker_cooldown", 0.0)
    kwargs.setdefault("sleep", lambda _s: None)
    client = ClusterRepository(spec, local=None, **kwargs)
    return grid, client, vm


def _traced(client):
    """Bind a tracer and a trace root; returns a function counting the
    client-side pull spans emitted so far."""
    tracer = EventTracer()
    client.bind_tracer(tracer)
    client.bind_trace_context(TraceContext.for_boot(1, 0))
    return lambda: sum(1 for event in tracer.events
                       if event.name == "remote.pull")


class TestHedgedReads:
    def test_forced_hedge_wins_on_sibling(self, tmp_path):
        grid, client, gold = _primed_cluster_client(tmp_path)
        pull_spans = _traced(client)
        try:
            injector = FaultInjector(7, ["hedge-trigger"], rate=1.0)
            with injecting(injector):
                vm = CoDesignedVM(vm_soft(), hot_threshold=20)
                vm.load(assemble(PROGRAMS["fibonacci"]))
                load = vm.warm_start(client)
                vm.run()
            assert client.remote_stats.hedges >= 1
            assert client.remote_stats.hedge_wins >= 1
            # the hedge is part of its pull, not a request of its own:
            # one pull (a warm start asks no manifest), one client span
            assert client.remote_stats.requests == 1
            assert pull_spans() == 1
            assert load.loaded > 0
            assert vm.state.exit_code == gold.state.exit_code
            assert list(vm.state.output) == list(gold.state.output)
            assert list(vm.state.regs) == list(gold.state.regs)
        finally:
            client.close()
            grid.stop()

    def test_threshold_hedge_abandons_dead_primary(self, tmp_path):
        """An explicit hedge threshold arms the single-attempt primary
        probe; a primary that cannot answer inside it (here: down) is
        abandoned and the sibling answers — without burning the
        probe's own retry schedule."""
        grid, client, gold = _primed_cluster_client(
            tmp_path, hedge_threshold=0.25)
        pull_spans = _traced(client)
        try:
            grid.stop_replica(grid.group_name(0), 0)
            records = client.load(*_fingerprints(gold))
            assert records
            assert client.remote_stats.hedges >= 1
            assert client.remote_stats.hedge_wins >= 1
            assert client.remote_stats.requests == 1
            assert client.remote_stats.retries == 1   # the hedge itself
            assert pull_spans() == 1
        finally:
            client.close()
            grid.stop()

    def test_no_hedge_without_siblings_or_samples(self, tmp_path):
        grid = LocalCluster(tmp_path / "solo", shards=1, replicas=1)
        spec = grid.start()
        client = ClusterRepository(spec, local=None, retries=1,
                                   sleep=lambda _s: None)
        pull_spans = _traced(client)
        try:
            client.load("cfg", "img")
            assert client.remote_stats.hedges == 0
            assert client.remote_stats.requests == 1
            assert pull_spans() == 1
        finally:
            client.close()
            grid.stop()


def _fingerprints(vm):
    from repro.persist import config_fingerprint, image_fingerprint
    return (config_fingerprint(vm.config), image_fingerprint(vm._image))


# -- thundering herd (satellite 3) --------------------------------------------


class TestThunderingHerd:
    def test_cold_herd_through_undersized_server(self, tmp_path):
        """16 cold boots, all at once on 8 boot processes, through one
        server that admits two store ops at a time: amplification stays
        within the 2x budget, nothing is accepted past its deadline, and
        every instance byte-matches the local baseline."""
        scenario = FleetScenario(
            n=16, boot_policy="all_at_once", image_policy="one",
            config="soft", warm=False, workload="fibonacci", seed=0,
            workers=8, max_queue_depth=2, hot_threshold=20)
        result = FleetEngine(workdir=tmp_path).run(scenario)

        assert result.arch_ok, \
            [p for i in result.instances for p in i.problems]
        requests, retries, late = (
            sum(i.remote.get(counter, 0) for i in result.instances)
            for counter in ("requests", "retries", "late_responses"))
        assert requests > 0
        amplification = (requests + retries) / requests
        assert amplification <= 2.0, \
            f"retry amplification {amplification:.2f} over bound"
        assert late == 0, f"{late} response(s) accepted past deadline"

    def test_slow_server_keeps_amplification_bounded(self, tmp_path):
        """``slow-server`` on one server's socket path, at 16 seeds:
        summed amplification stays within the 2x budget, nothing is
        accepted past its deadline, every run matches the baseline."""
        baseline = prepare_baseline("fibonacci", PROGRAMS["fibonacci"],
                                    str(tmp_path), hot_threshold=20)
        outcomes = [run_faulted(baseline, ["slow-server"], seed,
                                workdir=str(tmp_path), mode="remote")
                    for seed in range(16)]
        assert all(o.ok for o in outcomes), \
            [o.format() for o in outcomes if not o.ok]
        requests, retries, late = (
            sum(o.stats["remote"][counter] for o in outcomes)
            for counter in ("requests", "retries", "late_responses"))
        assert requests > 0
        amplification = (requests + retries) / requests
        assert amplification <= 2.0, \
            f"retry amplification {amplification:.2f} over bound"
        assert late == 0, f"{late} response(s) accepted past deadline"


# -- TMO001 lint rule ---------------------------------------------------------

def lint_one(path, source, rule, **registries):
    engine = LintEngine(rules=[rule], **registries)
    return engine.lint_sources({path: source})


def hits(report, rule_id):
    return [v for v in report.violations if v.rule_id == rule_id]


class TestTimeoutRule:
    def test_flags_literal_settimeout(self):
        report = lint_one("repro/persist/remote.py",
                          "def f(sock):\n    sock.settimeout(2.0)\n",
                          "TMO001")
        assert hits(report, "TMO001")

    def test_flags_literal_timeout_keyword_on_request_path(self):
        report = lint_one(
            "repro/cluster/client.py",
            "def f(client):\n"
            "    client.request('pull', {}, timeout=1.5)\n",
            "TMO001")
        assert hits(report, "TMO001")

    def test_allows_deadline_derived_timeouts(self):
        report = lint_one(
            "repro/persist/remote.py",
            "def f(self, sock, deadline):\n"
            "    sock.settimeout(min(self.timeout,"
            " deadline.remaining()))\n",
            "TMO001")
        assert not hits(report, "TMO001")

    def test_ignores_lock_waits_and_config_knobs(self):
        report = lint_one(
            "repro/cacheserver/server.py",
            "def f(self, cond, lease, cls):\n"
            "    cond.wait_for(lambda: True, timeout=1.0)\n"
            "    lease.acquire(timeout=2.0)\n"
            "    cls(addr, timeout=2.0)\n",
            "TMO001")
        assert not hits(report, "TMO001")

    def test_out_of_scope_packages_unchecked(self):
        report = lint_one("repro/faults/harness.py",
                          "def f(sock):\n    sock.settimeout(2.0)\n",
                          "TMO001")
        assert not hits(report, "TMO001")

    def test_live_tree_is_clean(self):
        from pathlib import Path

        engine = LintEngine(rules=["TMO001"])
        repo = Path(__file__).resolve().parents[1]
        report = engine.lint_paths([repo / "src" / "repro"])
        assert report.ok, report.format()


# -- fleet knob plumbing ------------------------------------------------------


class TestFleetKnobs:
    def test_execution_knobs_stay_out_of_canonical_dict(self):
        scenario = FleetScenario(request_budget=3.0, max_queue_depth=2)
        doc = scenario.to_dict()
        assert "request_budget" not in doc
        assert "max_queue_depth" not in doc
