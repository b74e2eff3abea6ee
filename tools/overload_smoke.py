#!/usr/bin/env python
"""Overload-protection smoke gate (the ``make overload-smoke`` target).

Executable claims from ``docs/overload.md``, against live sockets:

1. **Thundering herd stays bounded**: a 16-instance ``all_at_once``
   cold-client herd boots through one deliberately undersized cache
   server (``max_queue_depth`` far below the herd width).  Every
   instance must still byte-match the fault-free architected baseline,
   retry amplification across the fleet must stay at or below the 2x
   retry-budget target, and no client may count a single response
   accepted past its deadline.
2. **Shedding really sheds**: a barrier-released burst of concurrent
   pulls against a ``max_queue_depth=1`` server must observe at least
   one retryable ``overloaded`` answer server-side — and the shed
   clients, honoring the ``retry_after`` hint, must all still complete
   their request (success or clean degradation, never a hang).
3. **Hedged reads fire and win**: a seeded ``hedge-trigger`` drill
   through a live 1 shard x 2 replica cluster must abandon the primary
   probe, win on the sibling replica, and leave architected state
   byte-identical to the fault-free run.
4. **SLO verdicts pass**: the herd's collector snapshot must evaluate
   the overload objectives (retry-amplification, shed-rate,
   deadline-miss-rate) without a ``fail``.

Normalized scalars (pass flags and seeded-drill counts — never raw
scheduling-dependent tallies) are appended to
``results/bench_history.jsonl`` so the trajectory gate can see an
overload regression the PR it lands in.

Run directly (``python tools/overload_smoke.py``) or via
``make overload-smoke`` / ``make verify``.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from repro.cacheserver.server import CacheServer         # noqa: E402
from repro.cluster import (ClusterRepository,            # noqa: E402
                           LocalCluster)
from repro.core.config import vm_soft                    # noqa: E402
from repro.core.vm import CoDesignedVM                   # noqa: E402
from repro.faults.injector import FaultInjector          # noqa: E402
from repro.faults.plane import injecting                 # noqa: E402
from repro.fleet import FleetEngine, FleetScenario       # noqa: E402
from repro.isa.x86lite.assembler import assemble         # noqa: E402
from repro.obs.slo import worst_status                   # noqa: E402
from repro.obs.trajectory import (append_row, bench_diff,  # noqa: E402
                                  format_diff, history_row,
                                  load_history)
from repro.persist import capture_translations           # noqa: E402
from repro.persist.remote import RemoteRepository        # noqa: E402
from repro.workloads.programs import PROGRAMS            # noqa: E402

HOT_THRESHOLD = 20
HERD_N = 16
HERD_QUEUE_DEPTH = 4        # herd width 8 workers >> depth bound
BURST_THREADS = 32
BURST_ROUNDS = 6
DRILL_SEED = 7

#: normalized scalars for the bench trajectory (flags + seeded counts)
METRICS: dict = {}


def fail(message: str) -> int:
    print(f"OVERLOAD SMOKE FAIL: {message}")
    return 1


def herd_through_undersized_server():
    """Claims 1 + 4: the cold thundering herd through one undersized
    server — bounded amplification, no late acceptance, architected
    identity, passing SLO verdicts."""
    scenario = FleetScenario(
        n=HERD_N, boot_policy="all_at_once", image_policy="one",
        config="soft", warm=True, workload="fibonacci", seed=0,
        workers=8, hot_threshold=HOT_THRESHOLD,
        max_queue_depth=HERD_QUEUE_DEPTH, collect=True)
    result = FleetEngine().run(scenario)

    failures = 0
    if not result.arch_ok:
        problems = [p for i in result.instances for p in i.problems]
        failures += fail(f"herd diverged from the fault-free "
                         f"baseline: {problems}")
    requests = retries = late = deadline_exceeded = 0
    for instance in result.instances:
        remote = instance.remote
        requests += remote.get("requests", 0)
        retries += remote.get("retries", 0)
        late += remote.get("late_responses", 0)
        deadline_exceeded += remote.get("deadline_exceeded", 0)
    amplification = (requests + retries) / requests if requests else 1.0
    sheds = result.server.get("requests_shed", 0)
    print(f"herd: n={HERD_N} queue_depth={HERD_QUEUE_DEPTH} "
          f"requests={requests} retries={retries} "
          f"amplification={amplification:.2f} sheds={sheds} "
          f"late={late} deadline_exceeded={deadline_exceeded}")
    if amplification > 2.0:
        failures += fail(f"retry amplification {amplification:.2f} "
                         f"breaks the 2x budget bound")
    if late:
        failures += fail(f"{late} response(s) accepted past their "
                         f"deadline")

    verdicts = (result.telemetry or {}).get("canonical", {}).get(
        "slo", [])
    overload_verdicts = [v for v in verdicts if v["name"] in
                         ("retry-amplification", "shed-rate",
                          "deadline-miss-rate")]
    if len(overload_verdicts) != 3:
        failures += fail(f"expected 3 overload SLO verdicts, got "
                         f"{[v['name'] for v in overload_verdicts]}")
    elif worst_status(overload_verdicts) == "fail":
        failures += fail(f"overload SLOs failing: {overload_verdicts}")
    else:
        for verdict in overload_verdicts:
            print(f"slo {verdict['name']}: {verdict['status']} "
                  f"(value={verdict['value']})")

    # trajectory scalars are violation-style — zero is healthy, any
    # increase regresses under the default lower-is-better direction
    METRICS["overload.herd_arch_divergences"] = int(not result.arch_ok)
    METRICS["overload.amplification_excess"] = round(
        max(0.0, amplification - 2.0), 4)
    METRICS["overload.late_responses"] = late
    METRICS["overload.slo_failures"] = int(
        not overload_verdicts
        or worst_status(overload_verdicts) == "fail")
    return failures, sheds


def shed_burst(workdir: str):
    """Claim 2: a barrier-released burst against a
    ``max_queue_depth=1`` server must shed, and every shed client —
    honoring ``retry_after`` — must still complete its request.

    Half the threads push real translation records (store writes and
    fsyncs release the GIL mid-dispatch, so dispatch windows genuinely
    overlap), half pull; any overlap past the depth bound of 1 is a
    shed.  A few rounds per thread make the overlap odds overwhelming
    without depending on any single scheduling accident.
    """
    gold = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    gold.load(assemble(PROGRAMS["fibonacci"]))
    gold.run()
    records = [r for r in capture_translations(
        gold.runtime.directory, gold.state.memory) if r is not None]

    server = CacheServer(pathlib.Path(workdir) / "burst-repo",
                         host="127.0.0.1", port=0,
                         max_queue_depth=1)
    address = server.start()
    barrier = threading.Barrier(BURST_THREADS)
    outcomes = [None] * BURST_THREADS

    def one_client(rank: int) -> None:
        client = RemoteRepository(address, local=None, timeout=2.0,
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
        except Exception as error:   # noqa: BLE001 - the gate reports
            outcomes[rank] = f"{type(error).__name__}: {error}"
        finally:
            client.close()

    threads = [threading.Thread(target=one_client, args=(rank,))
               for rank in range(BURST_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    stats = server.stats.to_dict()
    server.stop()

    failures = 0
    sheds = stats.get("requests_shed", 0)
    hung = sum(thread.is_alive() for thread in threads)
    bad = [outcome for outcome in outcomes
           if outcome not in ("ok", "degraded")]
    done = outcomes.count("ok")
    print(f"burst: {BURST_THREADS} clients x {BURST_ROUNDS} rounds, "
          f"depth bound 1: sheds={sheds} completed={done} "
          f"degraded={outcomes.count('degraded')}")
    if hung:
        failures += fail(f"{hung} burst client(s) hung")
    if bad:
        failures += fail(f"burst client errors: {bad}")
    if sheds < 1:
        failures += fail("no request was shed — the queue-depth bound "
                         "never fired")
    if done < 1:
        failures += fail("no shed client completed after honoring "
                         "retry_after")
    return failures, sheds


def hedge_drill(workdir: str) -> int:
    """Claim 3: forced hedges through a live 1x2 cluster — the sibling
    replica must win the race and architected state must not move."""
    source = PROGRAMS["fibonacci"]
    gold = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
    gold.load(assemble(source))
    gold.run()

    root = pathlib.Path(workdir) / "hedge-cluster"
    failures = 0
    with LocalCluster(root, shards=1, replicas=2) as grid:
        spec = grid.spec()
        primer = ClusterRepository(spec, local=None, retries=2,
                                   breaker_cooldown=0.0,
                                   sleep=lambda _s: None)
        gold.save_translations(primer)
        primer.close()

        client = ClusterRepository(spec, local=None, retries=2,
                                   breaker_cooldown=0.0,
                                   sleep=lambda _s: None)
        vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
        vm.load(assemble(source))
        injector = FaultInjector(DRILL_SEED, ["hedge-trigger"],
                                 rate=1.0)
        with injecting(injector):
            load = vm.warm_start(client)
            vm.run()
        stats = client.remote_stats
        client.close()

    hedges, wins = stats.hedges, stats.hedge_wins
    print(f"hedge drill: seed={DRILL_SEED} loaded={load.loaded} "
          f"hedges={hedges} hedge_wins={wins}")
    if hedges < 1:
        failures += fail("forced hedge drill triggered no hedge")
    if wins < 1:
        failures += fail("no hedge won on the sibling replica")
    if not load.loaded:
        failures += fail("hedged warm start loaded nothing")
    if vm.state.exit_code != gold.state.exit_code or \
            list(vm.state.output) != list(gold.state.output) or \
            list(vm.state.regs) != list(gold.state.regs):
        failures += fail("hedged boot diverged from the fault-free "
                         "architected state")
    # "hit" marks these higher-is-better for the trajectory gate
    METRICS["overload.drill_hedge_hits"] = hedges
    METRICS["overload.drill_hedge_win_hits"] = wins
    METRICS["overload.drill_arch_divergences"] = int(bool(failures))
    return failures


def check_trajectory() -> int:
    """Append the normalized overload scalars to the bench history and
    gate on drift against the previous same-fingerprint row."""
    append_row(history_row("overload_smoke", METRICS, {
        "herd_n": HERD_N,
        "herd_queue_depth": HERD_QUEUE_DEPTH,
        "burst_threads": BURST_THREADS,
        "drill_seed": DRILL_SEED,
    }))
    regressions, comparisons = bench_diff(load_history())
    print("\nbench trajectory (results/bench_history.jsonl):")
    print(format_diff(regressions, comparisons))
    return 1 if regressions else 0


def main() -> int:
    print("overload-smoke: shedding, deadlines, budgets, hedges")
    print("=" * 60)
    failures = 0
    herd_failures, herd_sheds = herd_through_undersized_server()
    failures += herd_failures
    with tempfile.TemporaryDirectory(
            prefix="repro-overload-") as workdir:
        burst_failures, burst_sheds = shed_burst(workdir)
        failures += burst_failures
        failures += hedge_drill(workdir)
    if herd_sheds + burst_sheds < 1:
        failures += fail("no shed observed anywhere in the gate")
    METRICS["overload.sheds_missing"] = \
        int(herd_sheds + burst_sheds < 1)
    failures += check_trajectory()
    print("=" * 60)
    if failures:
        print(f"overload-smoke: {failures} failure(s)")
        return 1
    print("overload-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
