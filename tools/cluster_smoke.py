#!/usr/bin/env python
"""Cluster smoke gate (the ``make cluster-smoke`` target).

Exercises the sharded/replicated translation-cache cluster the way an
operator would — real ``repro serve`` subprocesses, real kill -9:

1. spawn a 3-shard x 2-replica cluster as six ``repro serve``
   subprocesses (``--shard-id``/``--role``), readiness probed through
   the wire ``health`` op (never a stdout scrape);
2. run a workload cold, push its translations through a
   :class:`~repro.cluster.ClusterRepository`, and boot a warm herd
   through the cluster — every instance must load every record;
3. ``kill -9`` one replica mid-herd (the victim is chosen
   deterministically: a replica of a shard group that owns records),
   push a *second* workload while it is down (so its group genuinely
   diverges), and keep booting — every boot, both workloads, must
   reproduce its cold baseline's architected results exactly;
4. restart the dead replica on the same address over its old store,
   run :func:`~repro.cluster.anti_entropy`, and verify it converges —
   the restarted replica's missed pushes are re-replicated — after
   which a second pass must find nothing left to do.

Any divergence, missed failover, or unconverged repair fails the gate
(exit 1).  Run directly (``python tools/cluster_smoke.py``) or via
``make cluster-smoke`` / ``make verify``.  See ``docs/cluster.md``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import ClusterRepository, anti_entropy   # noqa: E402
from repro.cluster.topology import ClusterSpec, ShardGroup  # noqa: E402
from repro.core.config import vm_soft                       # noqa: E402
from repro.core.vm import CoDesignedVM                      # noqa: E402
from repro.isa.x86lite.assembler import assemble            # noqa: E402
from repro.persist import (ReplicaSet,                      # noqa: E402
                           TranslationRepository)
from repro.workloads.programs import PROGRAMS               # noqa: E402

HOT_THRESHOLD = 20
WORKLOADS = ("fibonacci", "checksum")
SHARDS = 3
REPLICAS = 2
SERVER_STARTUP_DEADLINE = 15.0
HERD_BEFORE_KILL = 3
HERD_AFTER_KILL = 3


def spawn_server(cache_dir: str, shard_id: str, role: str,
                 port: int = 0) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--cache-dir", cache_dir,
         "--shard-id", shard_id, "--role", role],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO))


def read_address(proc: subprocess.Popen) -> str:
    """The kernel-assigned address from the serve banner (the one
    thing only the subprocess knows; liveness is still health-op)."""
    deadline = time.monotonic() + SERVER_STARTUP_DEADLINE
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if " on " in line:
            return line.rsplit(" on ", 1)[1].strip()
        if proc.poll() is not None:
            break
        if not line:
            time.sleep(0.05)
    raise RuntimeError("serve subprocess never printed its address")


def await_health(address: str, shard_id: str, role: str) -> None:
    """Block until the server answers the wire ``health`` op with the
    expected cluster membership."""
    probe = ReplicaSet([address], timeout=0.5, retries=0,
                       sleep=lambda _s: None)
    try:
        deadline = time.monotonic() + SERVER_STARTUP_DEADLINE
        while time.monotonic() < deadline:
            health = probe.ask("health")
            if health is not None:
                if health.get("shard_id") != shard_id or \
                        health.get("role") != role:
                    raise RuntimeError(
                        f"{address} answered health as "
                        f"{health.get('shard_id')}/{health.get('role')},"
                        f" expected {shard_id}/{role}")
                return
            time.sleep(0.05)
    finally:
        probe.close()
    raise RuntimeError(f"{address} never answered the health op")


def fresh_vm(workload: str) -> CoDesignedVM:
    vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    vm.load(assemble(PROGRAMS[workload]))
    return vm


def main() -> int:
    problems = []
    procs = {}
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as workdir:
        work = pathlib.Path(workdir)

        # 1. the cluster: six serve subprocesses, health-op readiness
        groups = []
        for shard in range(SHARDS):
            group = f"shard{shard}"
            addresses = []
            for index in range(REPLICAS):
                role = "primary" if index == 0 else "replica"
                store = str(work / group / f"replica{index}")
                proc = spawn_server(store, group, role)
                address = read_address(proc)
                await_health(address, group, role)
                procs[(group, index)] = proc
                addresses.append(address)
            groups.append(ShardGroup(name=group,
                                     replicas=tuple(addresses)))
        spec = ClusterSpec(groups=tuple(groups))
        print(f"cluster up: {spec.to_string()}")

        try:
            # 2. cold baselines + push workload 0 through the cluster
            baselines = {}
            records = {}
            for workload in WORKLOADS:
                vm = fresh_vm(workload)
                baselines[workload] = vm.run()
                local = work / f"baseline-{workload}"
                vm.save_translations(str(local))
                repo = TranslationRepository(local)
                manifest = next((local / "manifests").glob("*.json"))
                pair = tuple(manifest.stem.split("__", 1))
                records[workload] = (pair, repo.load(*pair))

            client = ClusterRepository(spec, retries=2,
                                       breaker_cooldown=0.0,
                                       sleep=lambda _s: None)
            (pair0, recs0) = records[WORKLOADS[0]]
            written = client.save(recs0, *pair0)
            print(f"pushed {written}/{len(recs0)} record(s) of "
                  f"{WORKLOADS[0]} across {SHARDS} shard(s)")
            if written != len(recs0):
                problems.append("initial cluster push lost records")

            def boot(workload, stage):
                vm = fresh_vm(workload)
                load = vm.warm_start(client)
                run = vm.run()
                base = baselines[workload]
                if (run.exit_code, run.output) != (base.exit_code,
                                                   base.output):
                    problems.append(f"{stage}: architected divergence")
                return load

            for rank in range(HERD_BEFORE_KILL):
                load = boot(WORKLOADS[0], f"pre-kill rank {rank}")
                if load.loaded != len(recs0):
                    problems.append(
                        f"pre-kill rank {rank} loaded {load.loaded}/"
                        f"{len(recs0)}")

            # 3. kill -9 one replica of a group that owns records,
            # then push workload 1 while it is down
            # the victim is the *primary* (first in failover order) of
            # a group that owns records, so reads genuinely fail over
            ring = spec.ring()
            owners = ring.partition([r["key"] for r in recs0])
            victim_group = sorted(group for group, keys
                                  in owners.items() if keys)[0]
            victim = (victim_group, 0)
            victim_proc = procs[victim]
            victim_proc.send_signal(signal.SIGKILL)
            victim_proc.wait(timeout=10)
            victim_address = spec.group(victim_group).replicas[0]
            print(f"killed {victim_group}/replica0 (primary) at "
                  f"{victim_address}")

            (pair1, recs1) = records[WORKLOADS[1]]
            client.save(recs1, *pair1)
            divergent = len(ring.partition(
                [r["key"] for r in recs1]).get(victim_group, ()))

            for rank in range(HERD_AFTER_KILL):
                load = boot(WORKLOADS[0], f"post-kill rank {rank}")
                if load.loaded != len(recs0):
                    problems.append(
                        f"post-kill rank {rank} loaded {load.loaded}/"
                        f"{len(recs0)} (failover should hide the kill)")
            boot(WORKLOADS[1], "post-kill second workload")

            stats = client.remote_stats.to_dict()
            print(f"degradation counters: "
                  f"failovers={stats['failovers']} "
                  f"conn_errors={stats['conn_errors']} "
                  f"group_degradations={stats['group_degradations']} "
                  f"quorum_misses={stats['quorum_misses']}")
            if stats["failovers"] == 0:
                problems.append("killed replica produced no failovers")
            if stats["group_degradations"] != 0:
                problems.append("a whole group degraded with one "
                                "replica still alive")

            # 4. restart the dead replica on the same address + store,
            # then anti-entropy must re-replicate what it missed
            host, _, port = victim_address.rpartition(":")
            proc = spawn_server(str(work / victim_group / "replica0"),
                                victim_group, "primary",
                                port=int(port))
            procs[victim] = proc
            await_health(victim_address, victim_group, "primary")
            print(f"restarted {victim_group}/replica0")

            report = anti_entropy(spec, retries=1,
                                  sleep=lambda _s: None)
            print(report.format())
            if not report.ok:
                problems.append("anti-entropy did not converge")
            if report.total_re_replicated != divergent:
                problems.append(
                    f"expected {divergent} record(s) re-replicated to "
                    f"the restarted primary, got "
                    f"{report.total_re_replicated}")
            second = anti_entropy(spec, retries=1,
                                  sleep=lambda _s: None)
            if not second.ok or second.total_re_replicated != 0:
                problems.append("repair is not idempotent: second "
                                "pass still moved records")

            healed = boot(WORKLOADS[1], "post-repair boot")
            if healed.loaded != len(recs1):
                problems.append(
                    f"post-repair boot loaded {healed.loaded}/"
                    f"{len(recs1)}")
            client.close()
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=10)

    if problems:
        for problem in problems:
            print(f"FAIL  {problem}")
        print(f"\ncluster smoke: {len(problems)} FAILURE(S)")
        return 1
    print("\ncluster smoke: replicated push, mid-herd kill -9 "
          "failover, and anti-entropy repair ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
