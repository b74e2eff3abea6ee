#!/usr/bin/env python
"""The drill runner: every ``make verify`` claim tier-1 cannot hold.

The tier-1 suite asserts what one process can: architected equality
under every fault class, byte-identical reports, amortization, trace
schemas.  What it cannot hold is checked here, once — real ``repro
serve`` subprocesses and ``kill -9``, the exhaustive fault sweep (tier-1
samples it), herds that really shed, the telemetry plane end to end, and
a timing.

A drill is a row of :data:`DRILLS`: a name, the ``docs/`` section whose
claim it executes, and a function ``(workdir) -> problems``.  The runner
gives each a scratch directory, prints one ``FAIL`` line per problem and
the wall seconds per drill, and exits 1 if anything failed.

    python tools/drills.py                # every drill (``make drills``)
    python tools/drills.py chaos serve    # some, in table order
    python tools/drills.py --list

The pieces are ``src/``'s own: a fresh VM and the architected comparison
(exit code, output, registers, flags) are ``faults.harness``'s
``Baseline`` / ``ArchOutcome``, the fault sweep is ``faults.run_matrix``,
in-process grids are ``LocalCluster`` — and :class:`ServeGrid` is the
same grid over subprocesses, the one thing only this file needs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Sequence

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cacheserver.server import CacheServer         # noqa: E402
from repro.cli import main as repro_main                 # noqa: E402
from repro.cluster import (ClusterRepository,            # noqa: E402
                           LocalCluster, anti_entropy)
from repro.core.config import vm_soft                    # noqa: E402
from repro.faults import (FAULTS, ArchOutcome,           # noqa: E402
                          FaultInjector, all_fault_names,
                          manifest_pairs, prepare_baseline, run_matrix)
from repro.fleet import (FleetEngine, FleetScenario,     # noqa: E402
                         build_report, export_fleet_trace,
                         serialize_report, validate_report)
from repro.obs.export import validate_trace              # noqa: E402
from repro.obs.slo import worst_status                   # noqa: E402
from repro.persist import ReplicaSet, TranslationRepository  # noqa: E402
from repro.workloads.programs import PROGRAMS            # noqa: E402

HOT_THRESHOLD = 20
#: Client knobs of every drill: never wait out a backoff, and re-probe a
#: tripped breaker at once — the drills kill servers on purpose.
FAST = dict(retries=2, breaker_cooldown=0.0, sleep=lambda _s: None)


# -- the steps every drill shares ---------------------------------------------

def baseline_of(name: str, workdir):
    """Fault-free cold run of a seed workload + its repository."""
    return prepare_baseline(name, PROGRAMS[name], str(workdir),
                            hot_threshold=HOT_THRESHOLD)


def boot(baseline, repository, stage: str, problems: List[str],
         loaded=None):
    """Boot a fresh VM of the baseline's program, warm-started through
    ``repository``, and hold its architected outcome against the
    baseline's; ``loaded`` is how many records the warm start must
    install.  Returns ``(load report, run summary)``."""
    vm = baseline.fresh_vm()
    load = vm.warm_start(repository)
    run = vm.run(max_instructions=baseline.max_instructions)
    problems.extend(f"{stage}: {difference}" for difference
                    in baseline.outcome.diff(ArchOutcome.of(vm)))
    if loaded is not None and load.loaded != loaded:
        problems.append(f"{stage}: loaded {load.loaded}/{loaded}")
    return load, run


def stored(baseline) -> list:
    """What the baseline's repository holds, as ``((config_fp,
    image_fp), records)`` per manifest."""
    repository = TranslationRepository(baseline.repo_dir)
    return [(pair, repository.load(*pair))
            for pair in manifest_pairs(baseline.repo_dir)]


def keys_of(baseline) -> List[str]:
    """The content keys of the baseline's records (what the ring
    shards by)."""
    return [record["key"] for _, records in stored(baseline)
            for record in records]


def push(client, baseline, problems: List[str]) -> List[str]:
    """Push the baseline's translations through ``client``; returns
    their keys."""
    keys = []
    for pair, records in stored(baseline):
        written = client.save(records, *pair)
        if written != len(records):
            problems.append(f"push of {baseline.name} wrote {written}/"
                            f"{len(records)} record(s)")
        keys.extend(record["key"] for record in records)
    return keys


def repair(spec, expected: int, problems: List[str]):
    """Anti-entropy must converge, re-replicate exactly ``expected``
    records — the share the healed replica missed — and then be
    idempotent: a second pass moves nothing."""
    report = anti_entropy(spec, retries=1, sleep=lambda _s: None)
    if not report.ok:
        problems.append("anti-entropy did not converge:\n"
                        + report.format())
    if report.total_re_replicated != expected:
        problems.append(f"expected {expected} record(s) re-replicated, "
                        f"got {report.total_re_replicated}")
    second = anti_entropy(spec, retries=1, sleep=lambda _s: None)
    if not second.ok or second.total_re_replicated != 0:
        problems.append("repair is not idempotent: the second pass "
                        "still moved records")
    return report


def share(spec, keys: Sequence[str], group: str) -> int:
    """How many of ``keys`` the ring places on ``group``."""
    return len(spec.ring().partition(keys).get(group, ()))


def cli(*args):
    """Run ``repro <args>`` in-process; ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main([str(arg) for arg in args])
    return code, out.getvalue()


# -- the one subprocess grid --------------------------------------------------

STARTUP_DEADLINE = 15.0


class ServeProcess:
    """One ``repro serve`` subprocess, ready when constructed: spawned,
    its address read from the banner (the one thing only the subprocess
    knows: a kernel-assigned port), liveness and identity confirmed
    through the wire ``health`` op."""

    def __init__(self, cache_dir, shard_id: str, role: str,
                 listen: str) -> None:
        host, _, port = listen.rpartition(":")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", host,
             "--port", port, "--cache-dir", str(cache_dir),
             "--shard-id", shard_id, "--role", role],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            cwd=str(REPO))
        try:
            self.address = self._banner_address()
            self._await_health(shard_id, role)
        except BaseException:
            self.kill()
            raise

    def _banner_address(self) -> str:
        deadline = time.monotonic() + STARTUP_DEADLINE
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if " on " in line:
                return line.rsplit(" on ", 1)[1].strip()
            if self.proc.poll() is not None:
                break
        raise RuntimeError("serve subprocess never printed its address")

    def _await_health(self, shard_id: str, role: str) -> None:
        probe = ReplicaSet([self.address], timeout=0.5, retries=0,
                           sleep=lambda _s: None)
        try:
            deadline = time.monotonic() + STARTUP_DEADLINE
            while time.monotonic() < deadline:
                health = probe.ask("health")
                if health is not None:
                    answered = (health.get("shard_id"), health.get("role"))
                    if answered != (shard_id, role):
                        raise RuntimeError(
                            f"{self.address} answered health as "
                            f"{answered}, expected {(shard_id, role)}")
                    return
                time.sleep(0.05)
        finally:
            probe.close()
        raise RuntimeError(f"{self.address} never answered the health op")

    def signal_stop(self) -> None:
        """``kill -9``, not waited for; a process already dead stays
        dead."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)

    def kill(self) -> None:
        self.signal_stop()
        self.proc.wait(timeout=10)
        self.proc.stdout.close()

    stop = kill


class ServeGrid(LocalCluster):
    """``LocalCluster`` over ``repro serve`` subprocesses: the same
    ``spec()`` / ``stop_replica`` (a genuine ``kill -9``) /
    ``restart_replica`` (same address, same store), so the outage steps
    below drive either grid."""

    def _spawn(self, group: str, index: int, old=None) -> ServeProcess:
        return ServeProcess(self.repo_dir(group, index), group,
                            self.role(index),
                            old.address if old else "127.0.0.1:0")

    def start(self):
        try:
            return super().start()
        except BaseException:
            self.stop()        # no orphan servers behind a failed spawn
            raise


# -- fault sweep --------------------------------------------------------------

WORKLOADS = ("fibonacci", "checksum", "bubble_sort", "sieve")
#: the wire paths are slower (real sockets; the cluster path spins six
#: live servers per run), so their cocktails sweep fewer workloads and seeds
WIRE_WORKLOADS = ("fibonacci", "checksum")
REMOTE_SEEDS = (0, 1, 2)
CLUSTER_SEEDS = (0, 1)
ALL = tuple(all_fault_names())
MATRIX = "chaos matrix (fault class x workload x mode)"
OVERLOAD = "overload cocktail (shed/deadline/hedge classes)"

#: The sweep, one row per (section, workloads, fault sets, seeds, mode,
#: injector overrides) — ``faults.run_matrix`` is the loop.  Per
#: workload: every fault alone at a forced rate in the mode of its
#: surface, then all faults together, warm and cold; then the
#: cocktails through a live server (docs/cache_server.md), a live 3x2
#: cluster (docs/cluster.md), and the overload classes stacked on a slow
#: server so shed, deadline, hedge, retry budget and the degradation
#: ladder fire together (docs/overload.md).
SWEEP = [row for name in WORKLOADS for row in (
    (MATRIX, (name,), [(fault,) for fault in ALL], (11,), "surface",
     {"rate": 1.0}),
    (MATRIX, (name,), (ALL,), (0, 1, 2, 3), "local", {}))] + [
    ("client/server chaos cocktail (remote mode)",
     WIRE_WORKLOADS, (ALL,), REMOTE_SEEDS, "remote", {}),
    ("cluster chaos cocktail (sharded cluster mode)",
     WIRE_WORKLOADS, (ALL,), CLUSTER_SEEDS, "cluster", {}),
    (OVERLOAD, WIRE_WORKLOADS,
     (("server-overloaded", "expired-deadline", "slow-server"),),
     REMOTE_SEEDS, "remote", {}),
    (OVERLOAD, WIRE_WORKLOADS,
     (("server-overloaded", "expired-deadline", "hedge-trigger",
       "slow-server", "shard-down"),), CLUSTER_SEEDS, "cluster", {}),
]


def preflight_fault_sites() -> int:
    """Fail fast when the fault table and the fault points disagree.

    A fault whose site string no production code visits makes every
    chaos run of it silently test nothing — the sweep would pass while
    injecting zero faults.  This is reprolint's FLT001 over the package,
    run before the (much slower) sweep burns its seconds on a vacuous
    matrix.
    """
    from repro.lint import LintEngine
    package = REPO / "src" / "repro"
    report = LintEngine(rules=["FLT001"]).lint_paths([package])
    if report.ok:
        return 0
    print(report.format())
    print("fix the fault table or the call sites (reprolint rule FLT001; "
          "see docs/static_analysis.md), then re-run")
    return 1


def chaos_drill(workdir) -> List[str]:
    """No fault changes architected results: every run of :data:`SWEEP`
    must complete and match its fault-free baseline.  Every line carries
    the seed, so a failure replays bit-for-bit."""
    if preflight_fault_sites():
        return ["fault-site drift: the sweep would be vacuous"]
    problems = []

    def report(outcome) -> None:
        print(outcome.format())
        if not outcome.ok:
            problems.append(f"{outcome.workload} seed={outcome.seed} "
                            f"[{'+'.join(outcome.faults)}] diverged")

    section = None
    for title, workloads, fault_sets, seeds, mode, overrides in SWEEP:
        if title != section:
            print(f"\n== {title} ==")
            section = title
        run_matrix({name: PROGRAMS[name] for name in workloads},
                   fault_sets, seeds, str(workdir), mode=mode,
                   hot_threshold=HOT_THRESHOLD, progress=report,
                   **overrides)
    return problems


def fsck_drill(workdir) -> List[str]:
    """Every disk fault is fully repairable: mangle, ``fsck --repair``,
    re-check clean, then warm-start from the repaired store."""
    problems = []
    baseline = baseline_of("fibonacci", workdir)
    disk_faults = [name for name in ALL if FAULTS[name].mangle is not None]
    for seed, fault in enumerate(disk_faults):
        repo_dir = workdir / f"fsck-{fault}"
        shutil.copytree(baseline.repo_dir, repo_dir)
        corruptions = FaultInjector(100 + seed, [fault], rate=1.0) \
            .mangle_repository(repo_dir)
        repository = TranslationRepository(repo_dir)
        repository.fsck(repair=True)
        clean = repository.fsck(repair=False)
        found = []
        load, _ = boot(baseline, repository, "warm run after repair",
                       found)
        if not clean.ok:
            found.append(f"fsck left {clean.issues} issue(s) behind")
        if load.corrupt:
            found.append(f"{load.corrupt} corrupt record(s) survived "
                         f"the repair")
        print(f"{'FAIL' if found else 'ok'}  fsck roundtrip [{fault}] "
              f"({corruptions} corruption(s), "
              f"{load.loaded}/{load.attempted} reloaded)")
        problems.extend(f"[{fault}] {problem}" for problem in found)
    return problems


# -- outages: kill, fail over, restart, repair --------------------------------

def failover_drill(workdir) -> List[str]:
    """Kill live shard servers mid-sequence; architected results must
    not move, and restart + anti-entropy must restore replication.

    A seeded sequence against one primed in-process 3x2 grid: a
    fault-free warm boot (everything loads); one replica down (seeded
    choice) — the boot fails over to the sibling and loads as much; its
    *whole* group down — that share degrades to cold translation (no
    local fallback, so the degradation is real, not masked); then the
    victim comes back with its disk wiped, so anti-entropy has real
    work — its whole share is re-replicated from the sibling — and the
    last boot is fully warm again.
    """
    problems = []
    for seed in CLUSTER_SEEDS:
        baseline = baseline_of(WIRE_WORKLOADS[seed % 2], workdir)
        found = []
        with LocalCluster(workdir / f"drill-{seed}") as grid:
            spec = grid.spec()
            client = ClusterRepository(spec, **FAST)
            keys = push(client, baseline, found)
            rng = random.Random(seed)
            # the victim's group owns records, so the wipe leaves
            # anti-entropy real work (a draw over all groups owned
            # none at seed 1: "re-replicated" compared 0 with 0)
            group = rng.choice(sorted(spec.ring().partition(keys)))
            victim = rng.randrange(grid.replicas)
            boot(baseline, client, "fault-free boot", found, len(keys))
            grid.stop_replica(group, victim)
            boot(baseline, client, f"boot with {group}/{victim} down",
                 found, len(keys))
            for index in range(grid.replicas):
                if index != victim:
                    grid.stop_replica(group, index)
            boot(baseline, client, f"boot with all of {group} down",
                 found)
            shutil.rmtree(grid.repo_dir(group, victim),
                          ignore_errors=True)
            for index in range(grid.replicas):
                grid.restart_replica(group, index)
            report = repair(spec, share(spec, keys, group), found)
            if not report.total_re_replicated:
                found.append(f"the wiped replica {group}/{victim} had "
                             f"nothing to repair: the step proves nothing")
            boot(baseline, client, "boot after repair", found, len(keys))
            stats = client.remote_stats
            client.close()
        print(f"{'FAIL' if found else 'ok'}  cluster drill "
              f"{baseline.name} seed={seed} victim={group}/{victim} "
              f"(failovers={stats.failovers}, "
              f"degradations={stats.group_degradations}, "
              f"repaired={report.total_re_replicated})")
        problems.extend(f"seed={seed} {problem}" for problem in found)
    return problems


def serve_drill(workdir) -> List[str]:
    """The client/server path the way an operator runs it — the 1x1
    case of the grid: one real ``repro serve``; push a workload through
    it; a fresh VM warm-starts through it, loads every record and
    translates **zero** blocks; ``kill -9`` it; a client with a local
    fallback still boots warm (the ``local`` rung) and one with nothing
    completes cold — all with the cold run's architected results."""
    problems = []
    baseline = baseline_of("fibonacci", workdir)
    with ServeGrid(workdir / "grid", shards=1, replicas=1) as grid:
        spec = grid.spec()
        client = ClusterRepository(spec)
        keys = push(client, baseline, problems)
        print(f"pushed {len(keys)} record(s) through {spec.to_string()}")
        _, warm = boot(baseline, client, "warm boot via server",
                       problems, len(keys))
        client.close()
        if warm.blocks_translated:
            problems.append(f"warm boot still translated "
                            f"{warm.blocks_translated} block(s)")
        grid.stop_replica("shard0", 0)
        print("server killed; clients must now degrade")
        impatient = dict(timeout=0.5, retries=1, sleep=lambda _s: None)

        fallback = ClusterRepository(spec, local=baseline.repo_dir,
                                     **impatient)
        _, run = boot(baseline, fallback, "fallback-to-local", problems,
                      len(keys))
        stats = fallback.remote_stats
        print(f"fallback-to-local: {stats.fallbacks} fallback(s), "
              f"{stats.conn_errors} conn error(s)")
        if stats.fallbacks == 0:
            problems.append("dead server produced no fallback")
        if run.blocks_translated:
            problems.append("local fallback did not boot warm")

        _, run = boot(baseline, ClusterRepository(spec, **impatient),
                      "fallback-to-cold", problems, 0)
        print(f"fallback-to-cold: {run.blocks_translated} block(s) "
              f"translated")
        if run.blocks_translated == 0:
            problems.append("cold fallback translated nothing")
    return problems


HERD_BOOTS = 3


def cluster_drill(workdir) -> List[str]:
    """The cluster the way an operator runs it: six ``repro serve``
    subprocesses (3 shards x 2 replicas), readiness through the wire
    ``health`` op.  Push a workload and boot a warm herd — every boot
    loads every record; ``kill -9`` the *primary* (first in failover
    order, so reads genuinely fail over) of a group that owns records;
    push a second workload while it is down (its group genuinely
    diverges) and keep booting — every boot of both workloads matches
    its cold baseline; restart it on the same address over its old
    store, and anti-entropy re-replicates exactly the pushes it missed.
    """
    problems = []
    first, second = (baseline_of(name, workdir)
                     for name in WIRE_WORKLOADS)
    with ServeGrid(workdir / "grid") as grid:
        spec = grid.spec()
        print(f"cluster up: {spec.to_string()}")
        client = ClusterRepository(spec, **FAST)
        keys = push(client, first, problems)
        for rank in range(HERD_BOOTS):
            boot(first, client, f"pre-kill rank {rank}", problems,
                 len(keys))
        # the victim owns records of the first workload (so reads must
        # fail over) and, among those groups, the most of the second
        # (so the push it misses leaves anti-entropy real work)
        ahead = keys_of(second)
        group = max(sorted(spec.ring().partition(keys)),
                    key=lambda name: share(spec, ahead, name))
        print(f"killed {group}/replica0 (primary) at "
              f"{grid.stop_replica(group, 0)}")
        missed = push(client, second, problems)
        for rank in range(HERD_BOOTS):
            boot(first, client, f"post-kill rank {rank} (failover "
                 f"should hide the kill)", problems, len(keys))
        boot(second, client, "post-kill second workload", problems)
        stats = client.remote_stats
        print(f"degradation counters: failovers={stats.failovers} "
              f"conn_errors={stats.conn_errors} "
              f"group_degradations={stats.group_degradations} "
              f"quorum_misses={stats.quorum_misses}")
        if stats.failovers == 0:
            problems.append("killed replica produced no failovers")
        if stats.group_degradations:
            problems.append("a whole group degraded with one replica "
                            "still alive")
        grid.restart_replica(group, 0)
        report = repair(spec, share(spec, missed, group), problems)
        print(report.format())
        boot(second, client, "post-repair boot", problems, len(missed))
        client.close()
    return problems


# -- overload -----------------------------------------------------------------

HERD_N = 16
HERD_QUEUE_DEPTH = 4        # herd width 8 workers >> depth bound
BURST_THREADS = 32
BURST_ROUNDS = 6
OVERLOAD_SLOS = ("retry-amplification", "shed-rate", "deadline-miss-rate")


def herd_through_undersized_server():
    """A 16-instance ``all_at_once`` herd on 8 boot processes
    through one server whose ``max_queue_depth`` is far below the herd
    width: every instance matches the fault-free baseline, retry
    amplification stays at or under the 2x retry-budget target, no
    response is accepted past its deadline, and the collector snapshot
    evaluates the three overload SLOs without a ``fail``."""
    result = FleetEngine().run(FleetScenario(
        n=HERD_N, boot_policy="all_at_once", image_policy="one",
        config="soft", warm=True, workload="fibonacci", seed=0,
        workers=8, hot_threshold=HOT_THRESHOLD,
        max_queue_depth=HERD_QUEUE_DEPTH, collect=True))
    problems = []
    if not result.arch_ok:
        problems.append(f"herd diverged from the fault-free baseline: "
                        f"{[p for i in result.instances for p in i.problems]}")
    requests, retries, late, missed = (
        sum(instance.remote.get(counter, 0)
            for instance in result.instances)
        for counter in ("requests", "retries", "late_responses",
                        "deadline_exceeded"))
    amplification = (requests + retries) / requests if requests else 1.0
    sheds = result.server.get("requests_shed", 0)
    print(f"herd: n={HERD_N} queue_depth={HERD_QUEUE_DEPTH} "
          f"requests={requests} retries={retries} "
          f"amplification={amplification:.2f} sheds={sheds} "
          f"late={late} deadline_exceeded={missed}")
    if amplification > 2.0:
        problems.append(f"retry amplification {amplification:.2f} "
                        f"breaks the 2x budget bound")
    if late:
        problems.append(f"{late} response(s) accepted past their "
                        f"deadline")
    verdicts = [verdict for verdict in (result.telemetry or {})
                .get("canonical", {}).get("slo", [])
                if verdict["name"] in OVERLOAD_SLOS]
    if len(verdicts) != len(OVERLOAD_SLOS) \
            or worst_status(verdicts) == "fail":
        problems.append(f"expected {len(OVERLOAD_SLOS)} overload SLO "
                        f"verdicts, none failing; got {verdicts}")
    for verdict in verdicts:
        print(f"slo {verdict['name']}: {verdict['status']} "
              f"(value={verdict['value']})")
    return problems


def shed_burst(workdir):
    """A barrier-released burst against a ``max_queue_depth=1`` server
    must shed, and every shed client — honoring ``retry_after`` — must
    still complete its request (success or clean degradation, never a
    hang).

    Half the threads push real translation records (store writes and
    fsyncs release the GIL mid-dispatch, so dispatch windows genuinely
    overlap), half pull; any overlap past the depth bound of 1 is a
    shed.  A few rounds per thread make the overlap odds overwhelming
    without depending on any single scheduling accident.
    """
    (_, records), = stored(baseline_of("fibonacci", workdir))
    server = CacheServer(workdir / "burst-repo", host="127.0.0.1",
                         port=0, max_queue_depth=1)
    address = server.start()
    barrier = threading.Barrier(BURST_THREADS)
    outcomes = [None] * BURST_THREADS

    def one_client(rank: int) -> None:
        client = ClusterRepository(address, local=None, timeout=2.0,
                                   retries=4, breaker_threshold=1000)
        try:
            barrier.wait()
            for round_no in range(BURST_ROUNDS):
                # load() and save() absorb sheds/degradation; distinct
                # image fingerprints keep the push leases uncontended
                if rank % 2:
                    client.load("cfg-burst", "img0")
                else:
                    client.save(records, "cfg-burst",
                                f"img{rank}-{round_no}")
            outcomes[rank] = "degraded" \
                if client.remote_stats.fallbacks else "ok"
        except Exception as error:   # noqa: BLE001 - the drill reports
            outcomes[rank] = f"{type(error).__name__}: {error}"
        finally:
            client.close()

    threads = [threading.Thread(target=one_client, args=(rank,))
               for rank in range(BURST_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    sheds = server.stats.to_dict().get("requests_shed", 0)
    server.stop()

    problems = []
    hung = sum(thread.is_alive() for thread in threads)
    bad = [outcome for outcome in outcomes
           if outcome not in ("ok", "degraded")]
    print(f"burst: {BURST_THREADS} clients x {BURST_ROUNDS} rounds, "
          f"depth bound 1: sheds={sheds} completed={outcomes.count('ok')} "
          f"degraded={outcomes.count('degraded')}")
    if hung:
        problems.append(f"{hung} burst client(s) hung")
    if bad:
        problems.append(f"burst client errors: {bad}")
    if sheds < 1:
        problems.append("no request was shed — the queue-depth bound "
                        "never fired")
    if "ok" not in outcomes:
        problems.append("no shed client completed after honoring "
                        "retry_after")
    return problems


def overload_drill(workdir) -> List[str]:
    """Overload protection against live sockets and real concurrency:
    the herd stays bounded, and shedding really sheds."""
    return herd_through_undersized_server() + shed_burst(workdir)


# -- the telemetry plane ------------------------------------------------------

def flow_link_problem(trace: dict) -> str:
    """Every client pull/push slice must flow-link to the server span
    that served it; every server span must name a client parent."""
    events = trace["traceEvents"]
    client = [e for e in events
              if e["name"] in ("remote.pull", "remote.push")
              and e["ph"] == "X"]
    if not client:
        return "no client pull/push spans in the merged trace"
    server = {e["args"]["span"]: e["args"] for e in events
              if e["name"] == "server.op" and e["ph"] == "X"}
    if not server:
        return "no server span lanes in the merged trace"
    starts = {}
    for event in events:
        if event.get("ph") == "s":
            starts.setdefault(
                (event["ts"], event["pid"], event["tid"]),
                []).append(event["id"])
    finishes = {e["id"] for e in events if e.get("ph") == "f"}
    served = {args["parent"] for args in server.values()}
    for slice_ in client:
        span_id = slice_["args"].get("span")
        if span_id not in served:
            return (f"client span {span_id} ({slice_['name']}) has no "
                    f"server span naming it as parent")
        flow_ids = starts.get(
            (slice_["ts"], slice_["pid"], slice_["tid"]), [])
        if not any(fid in finishes and fid in server
                   and server[fid]["parent"] == span_id
                   for fid in flow_ids):
            return (f"client span {span_id} ({slice_['name']}) carries "
                    f"no s/f flow pair to its server span")
    # other ops (manifest, lease, ...) emit remote.op slices — any
    # client-side slice with a span id is a legal parent
    client_ids = {e["args"]["span"] for e in events
                  if e["ph"] == "X" and e.get("args", {}).get("span")
                  and e["name"] != "server.op"}
    orphans = sorted(served - client_ids)
    return f"server spans with unknown parents: {orphans[:3]}" \
        if orphans else ""


def collect_drill(workdir) -> List[str]:
    """One ``--collect`` fleet over a live 3x2 cluster.  Trace context
    propagates across the wire: in the merged, schema-valid Perfetto
    trace every client ``remote.pull``/``remote.push`` slice carries a
    flow link to the server span that served it.  The collector
    snapshot is canonical: the same scenario twice yields byte-identical
    telemetry and report — SLO verdicts embedded and passing — with no
    wall-clock material in the canonical bytes."""
    scenario = FleetScenario(n=6, boot_policy="one_then_others",
                             shards=3, replicas=2, collect=True,
                             workers=3, seed=0)
    first = FleetEngine().run(scenario)
    if not first.arch_ok:
        return ["collect fleet lost architected equality"]
    report = build_report([first])
    problems = [f"collect report invalid: {problem}"
                for problem in validate_report(report)]
    verdicts = (report["fleets"][0].get("telemetry") or {}).get("slo")
    if not verdicts:
        return problems + ["no SLO verdicts embedded in the report"]
    bad = [v["name"] for v in verdicts if v["status"] != "pass"]
    if bad:
        problems.append(f"SLO verdicts not passing on a healthy "
                        f"fleet: {bad}")
    print(f"SLO verdicts embedded: {[v['name'] for v in verdicts]}")
    text = serialize_report(report)
    problems.extend(f"canonical collect report leaks wall-clock "
                    f"material ({word!r})"
                    for word in ("latency", "wall_ms") if word in text)

    trace = export_fleet_trace(first)
    problems.extend(f"merged trace invalid: {problem}"
                    for problem in validate_trace(trace)[:3])
    problem = flow_link_problem(trace)
    if problem:
        problems.append(problem)
    flows = sum(1 for e in trace["traceEvents"] if e.get("ph") == "f")
    print(f"client pull/push spans flow-linked to their server spans: "
          f"{flows} flow arrow(s)")

    second = FleetEngine().run(scenario)
    if serialize_report(build_report([second])) != text:
        problems.append("same-seed collect reports are not "
                        "byte-identical")
    if json.dumps(first.telemetry["canonical"], sort_keys=True) != \
            json.dumps(second.telemetry["canonical"], sort_keys=True):
        problems.append("canonical collector snapshots differ across "
                        "runs")
    return problems


def monitor_drill(workdir) -> List[str]:
    """The telemetry CLI end to end: ``repro fleet run --collect``
    embeds verdicts in its report and flow arrows in its trace; ``repro
    monitor`` scrapes a live cluster once and exits 0 while SLOs hold
    (``--json`` round-trips), 1 when a custom rule file fails."""
    report_path = workdir / "fleet_collect.json"
    trace_path = workdir / "fleet_collect_trace.json"
    code, out = cli("fleet", "run", "--n", 2, "--collect", "--workers",
                    2, "--out", report_path, "--trace-out", trace_path)
    if code != 0:
        return [f"repro fleet run --collect exited {code}:\n{out}"]
    problems = []
    report = json.loads(report_path.read_text())
    if "telemetry" not in report["fleets"][0]:
        problems.append("CLI --collect report has no telemetry section")
    trace = json.loads(trace_path.read_text())
    problem = "invalid" if validate_trace(trace) \
        else flow_link_problem(trace)
    if problem:
        problems.append(f"CLI --collect trace: {problem}")

    # a rule that cannot hold (fail bound below the observed 0.0)
    slo_path = workdir / "slo.json"
    slo_path.write_text(json.dumps([{
        "name": "always-red", "indicator": "breaker_flaps",
        "warn": -1.0, "fail": -0.5}]))
    with LocalCluster(workdir / "cluster") as grid:
        monitor = ("monitor", "--cluster", grid.spec().to_string())
        codes = [cli(*monitor)[0]]
        code, out = cli(*monitor, "--json")
        codes += [code, cli(*monitor, "--slo", slo_path)[0]]
        if code == 0 and json.loads(out)["scrapes"] != 1:
            problems.append("repro monitor --json did not round-trip")
    print(f"repro monitor exit codes (plain, --json, failing "
          f"--slo): {codes}")
    if codes != [0, 0, 1]:
        problems.append(f"repro monitor exit codes {codes}, wanted "
                        f"[0, 0, 1]")
    return problems


# -- a timing -----------------------------------------------------------------

#: Same hot loop as benchmarks/bench_functional_throughput.py.
HOT_LOOP = """
start:
    mov ecx, 20000
loop:
    add eax, ecx
    xor eax, 0x5A5A
    lea ebx, [eax+ecx*2]
    dec ecx
    jnz loop
    mov eax, 0
    mov ebx, 0
    int 0x80
"""
#: Disabled-tracing overhead allowance (timer noise included).
OVERHEAD_ALLOWANCE = 1.05
TIMING_ROUNDS = 15
#: Runs of the hot loop timed together as one sample.
SAMPLE_BOOTS = 5


def trace_overhead_drill(workdir) -> List[str]:
    """Disabled tracing is near-zero cost: the untraced hot path pays
    one pointer test per hook site, so an untraced run of the
    throughput hot loop must not be measurably slower than a traced
    run of the same loop.

    Warmed-up, interleaved samples.  One run is tens of milliseconds
    (the native machine replays pre-decoded runs), short enough for a
    busy host to double it: a sample is several runs, and since the two
    samples of a round share the host's mood, the gate reads the median
    of the per-round quotients, not a quotient of medians.  Rounds
    alternate which side runs first, so neither always meets the
    warmer host, and the quotients' interquartile range is printed as
    the noise band the median sits in.
    """
    loop = prepare_baseline("hot_loop", HOT_LOOP, str(workdir),
                            hot_threshold=50)

    def sample(trace: bool) -> float:
        elapsed = 0.0
        for _ in range(SAMPLE_BOOTS):
            vm = loop.fresh_vm(vm_soft().with_(trace=trace))
            started = time.perf_counter()
            vm.run(max_uops=80_000_000)
            elapsed += time.perf_counter() - started
        return elapsed

    def timed_round(order) -> tuple:
        seconds = {trace: sample(trace) for trace in order}
        return seconds[False], seconds[True]

    sample(False), sample(True)         # warm caches / allocator
    rounds = [timed_round((False, True) if index % 2 else (True, False))
              for index in range(TIMING_ROUNDS)]
    quotients = [untraced / traced for untraced, traced in rounds]
    ratio = statistics.median(quotients)
    low, _, high = statistics.quantiles(quotients, n=4)
    untraced, traced = (statistics.median(column) * 1e3
                        for column in zip(*rounds))
    print(f"hot loop: untraced {untraced:.1f} ms, traced {traced:.1f} "
          f"ms (untraced/traced = {ratio:.3f}, IQR {low:.3f}-{high:.3f}, "
          f"over {TIMING_ROUNDS} rounds alternating which runs first, "
          f"allowed <= {OVERHEAD_ALLOWANCE})")
    return [f"untraced/traced = {ratio:.3f} > {OVERHEAD_ALLOWANCE}"] \
        if ratio > OVERHEAD_ALLOWANCE else []


# -- the table and its runner -------------------------------------------------

@dataclass(frozen=True)
class Drill:
    name: str
    #: ``docs/<file>#<heading>``: the section whose claim the drill runs
    claim: str
    run: Callable[[pathlib.Path], List[str]]


DRILLS = (
    Drill("chaos", "docs/robustness.md#The chaos gate", chaos_drill),
    Drill("failover", "docs/cluster.md#Faults and gates",
          failover_drill),
    Drill("fsck", "docs/persistence.md#Crash safety and repair",
          fsck_drill),
    Drill("serve", "docs/cache_server.md#Chaos coverage", serve_drill),
    Drill("cluster", "docs/cluster.md#Anti-entropy repair",
          cluster_drill),
    Drill("overload", "docs/overload.md#Faults and gates",
          overload_drill),
    Drill("collect",
          "docs/observability.md#Distributed tracing & monitoring",
          collect_drill),
    Drill("monitor",
          "docs/observability.md#Distributed tracing & monitoring",
          monitor_drill),
    Drill("trace-overhead", "docs/observability.md#The gates",
          trace_overhead_drill),
)


def run_drills(drills: Sequence[Drill]) -> int:
    """Run the rows in order, each in its own scratch directory; a drill
    that raises has failed, and the rows after it still run."""
    failed, seconds = 0, []
    for drill in drills:
        print(f"\n==== {drill.name} ({drill.claim})")
        began = time.monotonic()
        with tempfile.TemporaryDirectory(
                prefix=f"repro-{drill.name}-") as workdir:
            try:
                problems = drill.run(pathlib.Path(workdir))
            except Exception:   # noqa: BLE001 - reported as the failure
                problems = [traceback.format_exc()]
        seconds.append(time.monotonic() - began)
        for problem in problems:
            print(f"FAIL  {drill.name}: {problem}")
        failed += bool(problems)
    print("\ndrills: wall seconds per drill")
    for drill, spent in zip(drills, seconds):
        print(f"  {drill.name:16s} {spent:4.0f} s")
    print(f"  {'total':16s} {sum(seconds):4.0f} s")
    print(f"drills: {failed} of {len(drills)} FAILED" if failed
          else f"drills: all {len(drills)} ok")
    return 1 if failed else 0


def main(argv=None, table: Sequence[Drill] = DRILLS) -> int:
    parser = argparse.ArgumentParser(
        description="Run the drills (all of them by default).")
    parser.add_argument("names", nargs="*", metavar="drill")
    parser.add_argument("--list", action="store_true",
                        help="print the drill table and exit")
    args = parser.parse_args(argv)
    if args.list:
        for drill in table:
            print(f"{drill.name:16s} {drill.claim}")
        return 0
    unknown = sorted(set(args.names) - {drill.name for drill in table})
    if unknown:
        parser.error(f"unknown drill(s) {', '.join(unknown)}; "
                     f"--list prints the table")
    return run_drills([drill for drill in table
                       if not args.names or drill.name in args.names])


if __name__ == "__main__":
    sys.exit(main())
