"""Cluster tier: ring, spec, merge convergence, failover, repair.

The contract under test extends the single-server promise — **no
cluster failure may change architected results** — across sharding and
replication: reads fail over replica → other replica → local cache →
cold translation without raising into the VM, concurrent writers'
manifests converge to one merged union regardless of push order, and
anti-entropy re-replicates exactly what a dead replica missed.
"""

import contextlib
import json
import time

import pytest

from repro.cluster import (
    ClusterRepository,
    LocalCluster,
    anti_entropy,
)
from repro.cluster.ring import HashRing
from repro.cluster.topology import ClusterSpec, ShardGroup
from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults import (
    FAULTS,
    modes_for,
    prepare_baseline,
    run_faulted,
)
from repro.isa.x86lite import assemble
from repro.persist import (
    ReplicaSet,
    TranslationRepository,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
)
from tests.stored import stored_texts

LOOP = """
start:
    mov ecx, 160
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

CLUSTER_FAULTS = ("shard-down", "slow-shard", "replica-partition",
                  "stale-replica", "split-manifest")


def fast_client(spec, **kwargs):
    kwargs.setdefault("timeout", 2.0)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("breaker_cooldown", 0.0)
    kwargs.setdefault("sleep", lambda _s: None)
    return ClusterRepository(spec, **kwargs)


@pytest.fixture(scope="module")
def payload():
    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(LOOP))
    vm.run()
    records = capture_translations(vm.runtime.directory,
                                   vm.state.memory)
    return (records, config_fingerprint(vm.config),
            image_fingerprint(vm._image))


class TestHashRing:
    KEYS = [f"key-{index:04d}" for index in range(200)]

    def test_routing_is_deterministic_across_instances(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["a", "b", "c"])
        assert [one.group_for(k) for k in self.KEYS] == \
            [two.group_for(k) for k in self.KEYS]

    def test_vnodes_spread_keys_over_every_group(self):
        ring = HashRing(["shard0", "shard1", "shard2"])
        buckets = ring.partition(self.KEYS)
        assert set(buckets) == {"shard0", "shard1", "shard2"}
        # vnode smoothing: no group hoards the population
        assert all(len(keys) >= len(self.KEYS) // 10
                   for keys in buckets.values())

    def test_partition_preserves_caller_key_order(self):
        ring = HashRing(["a", "b"])
        buckets = ring.partition(self.KEYS)
        for keys in buckets.values():
            assert keys == sorted(keys, key=self.KEYS.index)

    def test_adding_a_group_moves_keys_only_to_it(self):
        before = HashRing(["a", "b"])
        after = HashRing(["a", "b", "c"])
        moved = 0
        for key in self.KEYS:
            old, new = before.group_for(key), after.group_for(key)
            if old != new:
                assert new == "c"       # consistent hashing: keys only
                moved += 1              # move into the new group's arcs
        assert 0 < moved < len(self.KEYS)

    def test_rejects_empty_and_duplicate_groups(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])


class TestClusterSpec:
    TEXT = "shard0=127.0.0.1:7001,127.0.0.1:7002;shard1=:7003,:7004"

    def test_spec_string_round_trips(self):
        spec = ClusterSpec.parse(self.TEXT)
        assert [g.name for g in spec.groups] == ["shard0", "shard1"]
        assert spec.groups[0].replicas == ("127.0.0.1:7001",
                                           "127.0.0.1:7002")
        assert ClusterSpec.parse(spec.to_string()) == spec
        assert ClusterSpec.parse(spec) is spec

    def test_dict_round_trips_through_json(self):
        spec = ClusterSpec.parse(self.TEXT)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert ClusterSpec.from_dict(wire) == spec
        assert ClusterSpec.parse(wire) == spec

    def test_replication_is_the_weakest_group(self):
        spec = ClusterSpec(groups=(
            ShardGroup(name="a", replicas=(":1", ":2", ":3")),
            ShardGroup(name="b", replicas=(":4",))))
        assert spec.replication == 1

    @pytest.mark.parametrize("bad", ["", "   ", "noequals",
                                     "=addr", "a=1;a=2", None, 7])
    def test_rejects_unusable_specs(self, bad):
        with pytest.raises(ValueError):
            ClusterSpec.parse(bad)

    def test_group_lookup(self):
        spec = ClusterSpec.parse(self.TEXT)
        assert spec.group("shard1").replicas == (":7003", ":7004")
        with pytest.raises(KeyError):
            spec.group("shard9")


class TestMergeConvergence:
    """Concurrent writers' manifests converge to one merged union
    regardless of push order — the property repair and quorum lean on."""

    def test_opposite_push_orders_converge(self, tmp_path, payload):
        records, config_fp, image_fp = payload
        assert len(records) >= 2
        half = len(records) // 2
        first, second = records[:half], records[half:]
        with LocalCluster(tmp_path / "grid", shards=2,
                          replicas=2) as grid:
            spec = grid.spec()
            one, two = fast_client(spec), fast_client(spec)
            one.save(first, config_fp, image_fp)
            two.save(second, config_fp, image_fp)
            # reversed arrival order of the *same* shares on a second
            # pair of pushes must be a no-op (merge semantics): the
            # loaded union is already complete and stays byte-stable
            union = one.load(config_fp, image_fp)
            assert [r["key"] for r in union] == \
                sorted(r["key"] for r in records)
            two.save(first, config_fp, image_fp)
            one.save(second, config_fp, image_fp)
            assert two.load(config_fp, image_fp) == union
            # every replica's on-disk manifest lists its group's share
            owners = spec.ring().partition(
                [r["key"] for r in records])
            for (group, index) in sorted(grid.servers):
                disk = TranslationRepository(
                    grid.repo_dir(group, index))
                held = {r["key"]
                        for r in disk.load(config_fp, image_fp)}
                assert held == set(owners.get(group, []))
            one.close()
            two.close()


class LadderChecks:
    """replica → other replica → local cache → cold translation: one
    body per rung, run on every topology by the subclasses below (a
    single server is the 1x1 cluster), asserting the same counters on
    each."""

    shards = replicas = 0

    def grid(self, tmp_path):
        return LocalCluster(tmp_path / "grid", shards=self.shards,
                            replicas=self.replicas)

    def kill_owning_group(self, grid, records):
        """Stop every replica of the first group that owns records;
        returns (group, keys by owning group)."""
        owners = grid.spec().ring().partition(
            [r["key"] for r in records])
        group = sorted(name for name, keys in owners.items() if keys)[0]
        for index in range(self.replicas):
            grid.stop_replica(group, index)
        return group, owners

    def test_dead_group_falls_back_to_local(self, tmp_path, payload):
        records, config_fp, image_fp = payload
        local = TranslationRepository(tmp_path / "local")
        local.save(records, config_fp, image_fp)
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            fast_client(spec).save(records, config_fp, image_fp)
            self.kill_owning_group(grid, records)
            client = fast_client(spec, local=local)
            loaded = client.load(config_fp, image_fp)
            assert [r["key"] for r in loaded] == \
                sorted(r["key"] for r in records)
            stats = client.remote_stats.to_dict()
            assert stats["conn_errors"] == 2    # retries + 1 attempts
            assert stats["group_degradations"] == 1
            assert stats["fallbacks"] == 1
            assert stats["local_fallbacks"] == 1
            assert stats["cold_degradations"] == 0
            client.close()

    def test_dead_group_without_local_shrinks_to_cold(self, tmp_path,
                                                      payload):
        records, config_fp, image_fp = payload
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            fast_client(spec).save(records, config_fp, image_fp)
            group, owners = self.kill_owning_group(grid, records)
            client = fast_client(spec)
            loaded = client.load(config_fp, image_fp)    # never raises
            surviving = {r["key"] for r in records} \
                - set(owners.get(group, []))
            assert {r["key"] for r in loaded} == surviving
            stats = client.remote_stats.to_dict()
            assert stats["group_degradations"] == 1
            assert stats["fallbacks"] == 1
            assert stats["cold_degradations"] == 1
            assert stats["local_fallbacks"] == 0
            client.close()

    def test_zero_ack_push_degrades_not_raises(self, tmp_path,
                                               payload):
        records, config_fp, image_fp = payload
        local = TranslationRepository(tmp_path / "local")
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            group, owners = self.kill_owning_group(grid, records)
            client = fast_client(spec, local=local)
            written = client.save(records, config_fp, image_fp)
            assert written == len(records)  # dead group's share landed
            stats = client.remote_stats.to_dict()   # in the local repo
            assert stats["push_group_failures"] == 1
            assert stats["fallbacks"] == 1
            assert stats["local_fallbacks"] == 1
            held = {r["key"]
                    for r in local.load(config_fp, image_fp)}
            assert held == set(owners.get(group, []))
            client.close()

    def test_zero_ack_push_without_local_writes_less(self, tmp_path,
                                                     payload):
        records, config_fp, image_fp = payload
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            group, owners = self.kill_owning_group(grid, records)
            client = fast_client(spec)
            written = client.save(records, config_fp, image_fp)
            assert written == len(records) - len(owners[group])
            stats = client.remote_stats.to_dict()
            assert stats["push_group_failures"] == 1
            assert stats["fallbacks"] == 1
            assert stats["cold_degradations"] == 1
            client.close()


class ReplicatedLadderChecks(LadderChecks):
    """The rungs that need a sibling to fail over to."""

    def owning_group(self, spec, records):
        owners = spec.ring().partition([r["key"] for r in records])
        return sorted(group for group, keys in owners.items()
                      if keys)[0], owners

    def test_dead_primary_fails_over_to_its_sibling(self, tmp_path,
                                                    payload):
        records, config_fp, image_fp = payload
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            fast_client(spec).save(records, config_fp, image_fp)
            group, _ = self.owning_group(spec, records)
            grid.stop_replica(group, 0)     # the first in failover order
            client = fast_client(spec, retries=2)
            loaded = client.load(config_fp, image_fp)
            assert {r["key"] for r in loaded} == \
                {r["key"] for r in records}
            stats = client.remote_stats.to_dict()
            # a dead replica costs one attempt, and no breaker but its
            # own could have noticed
            assert stats["conn_errors"] == 1
            assert stats["failovers"] == 1
            assert stats["group_degradations"] == 0
            assert stats["fallbacks"] == 0
            client.close()

    def test_below_quorum_write_counts_a_miss(self, tmp_path, payload):
        records, config_fp, image_fp = payload
        with self.grid(tmp_path) as grid:
            spec = grid.spec()
            group, owners = self.owning_group(spec, records)
            grid.stop_replica(group, 1)     # one ack < majority of 2
            client = fast_client(spec)
            assert client.groups[group].quorum == 2
            written = client.save(records, config_fp, image_fp)
            assert written == len(records)  # the surviving replica took
            stats = client.remote_stats.to_dict()   # the whole share
            assert stats["quorum_misses"] == 1
            assert stats["push_group_failures"] == 0
            assert stats["fallbacks"] == 0
            client.close()


class TestFailoverLadder(ReplicatedLadderChecks):
    shards, replicas = 2, 2


class TestFailoverLadder1x2(ReplicatedLadderChecks):
    shards, replicas = 1, 2


class TestFailoverLadder1x1(LadderChecks):
    shards, replicas = 1, 1


class TestHealthOp:
    def test_health_answers_cluster_membership(self, tmp_path):
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=2) as grid:
            address = grid.server("shard0", 1).address
            probe = ReplicaSet([address], retries=0,
                               sleep=lambda _s: None)
            health = probe.ask("health")
            assert health["shard_id"] == "shard0"
            assert health["role"] == "replica"
            assert health["draining"] is False
            assert health["objects"] == 0
            probe.close()

    def test_health_view_reports_dead_replicas(self, tmp_path):
        with LocalCluster(tmp_path / "grid", shards=2,
                          replicas=2) as grid:
            grid.stop_replica("shard1", 1)
            client = fast_client(grid.spec(), retries=0)
            view = client.health_view()
            assert set(view) == {"shard0", "shard1"}
            live = [e for e in view["shard0"]
                    if e.get("health") is not None]
            assert len(live) == 2
            down = [e for e in view["shard1"]
                    if e.get("health") is None]
            assert len(down) == 1
            assert client.ping() is True    # one live replica per group
            client.close()


class TestAntiEntropy:
    def test_restarted_replica_heals_exactly_its_missed_share(
            self, tmp_path, payload):
        records, config_fp, image_fp = payload
        with LocalCluster(tmp_path / "grid", shards=2,
                          replicas=2) as grid:
            spec = grid.spec()
            owners = spec.ring().partition(
                [r["key"] for r in records])
            victim = sorted(group for group, keys in owners.items()
                            if keys)[0]
            grid.stop_replica(victim, 1)
            fast_client(spec).save(records, config_fp, image_fp)
            grid.restart_replica(victim, 1)
            report = anti_entropy(spec, retries=1,
                                  sleep=lambda _s: None)
            assert report.ok, report.format()
            assert report.total_re_replicated == \
                len(owners.get(victim, []))
            # idempotent: a second pass finds nothing left to move
            second = anti_entropy(spec, retries=1,
                                  sleep=lambda _s: None)
            assert second.ok and second.total_re_replicated == 0
            disk = TranslationRepository(grid.repo_dir(victim, 1))
            held = {r["key"]
                    for r in disk.load(config_fp, image_fp)}
            assert held == set(owners.get(victim, []))

    def test_unreachable_replica_is_reported_not_fatal(self, tmp_path,
                                                       payload):
        records, config_fp, image_fp = payload
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=2) as grid:
            spec = grid.spec()
            fast_client(spec).save(records, config_fp, image_fp)
            dead = grid.stop_replica("shard0", 1)
            report = anti_entropy(spec, timeout=0.5, retries=0,
                                  sleep=lambda _s: None)
            assert report.ok is False       # convergence unprovable
            assert report.unreachable == [dead]
            assert report.total_re_replicated == 0


class TestClusterFaultInjection:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("cluster-chaos"))
        return prepare_baseline("loop", LOOP, workdir, hot_threshold=30)

    @pytest.mark.parametrize("fault", CLUSTER_FAULTS)
    def test_each_class_is_survivable_at_full_rate(self, baseline,
                                                   fault):
        outcome = run_faulted(baseline, [fault], seed=11,
                              mode="cluster", rate=1.0)
        assert outcome.ok, outcome.format()
        assert outcome.injected[fault] > 0
        assert outcome.stats["remote"]["requests"] > 0

    def test_cocktail_of_all_cluster_classes(self, baseline):
        for seed in (0, 1):
            outcome = run_faulted(baseline, list(CLUSTER_FAULTS), seed,
                                  mode="cluster")
            assert outcome.ok, outcome.format()

    def test_mode_selection(self):
        for name in CLUSTER_FAULTS:
            assert FAULTS[name].surface == "cluster"
            assert modes_for([name]) == ["cluster"]   # one warm boot
        assert modes_for(["conn-refused"]) == ["remote"]


@contextlib.contextmanager
def journaled_writes():
    """Every journaled write made inside the block, on any thread, as
    ``(store root, file name)``."""
    real_write, writes = TranslationRepository._write, []

    def recording_write(self, path, payload, indent=None):
        writes.append((self.root, path.name))
        return real_write(self, path, payload, indent=indent)

    TranslationRepository._write = recording_write
    try:
        yield writes
    finally:
        TranslationRepository._write = real_write


class TestNoChangeNoWrite:
    """A request that leaves a replica's store as it was writes nothing
    there (docs/persistence.md, "Eviction")."""

    def test_repeated_push_and_following_pull_write_nothing(
            self, tmp_path, payload):
        records, config_fp, image_fp = payload
        with LocalCluster(tmp_path / "grid", shards=2,
                          replicas=2) as grid:
            client = fast_client(grid.spec())
            with journaled_writes() as first:
                client.save(records, config_fp, image_fp)
            # one pack, one manifest and one index on every replica
            # that got any record
            touched = {root for root, _name in first}
            assert len(first) == 3 * len(touched)
            assert sorted(name.rpartition(".")[2] for root, name in first
                          if root == min(touched)) == \
                ["json", "json", "pack"]
            # each record once per replica of its group
            assert sum(len(stored_texts(root)) for root in touched) == \
                2 * len(records)
            with journaled_writes() as again:
                client.save(records, config_fp, image_fp)
                pulled = client.load(config_fp, image_fp)
            assert again == []
            assert len(pulled) == len(records)
            # a push under another manifest makes its records the most
            # recent: the next pull of the first is a change of order,
            # one index written by the one replica that serves it (of
            # a group that holds other records too)
            crowded = max(grid.spec().ring().partition(
                [record["key"] for record in records]).values(), key=len)
            assert len(crowded) > 1
            client.save([record for record in records
                         if record["key"] == crowded[0]],
                        config_fp, "another-image")
            with journaled_writes() as after:
                assert len(client.load(config_fp, image_fp)) == \
                    len(records)
            assert [name for _root, name in after] == ["meta.json"]
            client.close()

    def test_cluster_stop_is_quick(self, tmp_path):
        grid = LocalCluster(tmp_path / "grid", shards=2, replicas=2)
        stops = []
        for _ in range(9):
            grid.start()
            started = time.perf_counter()
            grid.stop()
            stops.append(time.perf_counter() - started)
            grid.servers.clear()
        # four loops polling for a stop flag, stopped one after the
        # other, would read a tenth of a second
        assert sorted(stops)[len(stops) // 2] <= 0.015
