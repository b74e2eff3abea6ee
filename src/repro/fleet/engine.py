"""Fleet engine — boot herds of CoDesignedVM instances against one
shared translation cache.

One :meth:`FleetEngine.run` call executes one
:class:`~repro.fleet.grid.FleetScenario`: it hosts a private
``shards`` x ``replicas`` :class:`~repro.cluster.manager.LocalCluster`
over scratch repositories (1x1, one cache server, unless the scenario
says otherwise), boots ``scenario.n`` instances through a worker pool
(threads by default, spawn-based processes on request), and collects
per-instance startup ledgers, tracer events, warm-start reports and
client degradation counters into a :class:`FleetResult`.  Every
instance warm-starts *through* the servers with its own fault-tolerant
:class:`~repro.persist.remote.RemoteRepository` client, so the herd
exercises the exact pull/validate/degrade path a real consolidation
host would.

Determinism contract (the acceptance bar is byte-identical reports at
the same seed, under real thread concurrency):

* **pulls only ever see a static store.**  Under ``all_at_once`` the
  whole herd boots against the initial store state; under
  ``one_then_others`` rank 0 boots alone, the engine publishes its
  translations, and only then does the rest of the herd start.  No
  instance's pull races another instance's push.
* **pushes are performed by the engine**, sequentially in boot-rank
  order, through one client — workers only *capture* their
  translations and hand the records back.  Dedup counts are therefore
  a pure function of the scenario, not of thread scheduling.
* **per-instance measurements are simulated-cycle**, never wall-clock:
  time-to-steady-state comes from the instance's own tracer stream on
  the :class:`~repro.obs.ledger.CycleLedger` clock.  Wall-clock lives
  only in the non-canonical ``ops`` section of the result.
* **fault cocktails serialize the pool** (the fault plane is a process
  global) and use per-rank seeded injectors, so chaos fleets replay
  bit-for-bit too.

The per-instance invariant is the same as everywhere else in the
stack: no server behaviour — cold store, contended lease, injected
network faults — may change an instance's architected results.  The
engine checks every instance against a fault-free local baseline and
records the diff in :attr:`InstanceResult.problems`.
"""

from __future__ import annotations

import concurrent.futures
import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.manager import LocalCluster
from repro.core.config import resolve_config
from repro.core.vm import CoDesignedVM
from repro.faults.classes import make_fault
from repro.faults.injector import FaultInjector
from repro.faults.plane import injecting
from repro.fleet.grid import FleetScenario
from repro.isa.x86lite.assembler import assemble
from repro.obs.telemetry import TraceContext
from repro.obs.tracer import EventTracer
from repro.persist import (capture_translations, config_fingerprint,
                           image_fingerprint)
from repro.persist.remote import RemoteRepository
from repro.workloads.programs import PROGRAMS

log = logging.getLogger("repro.fleet")

#: Tracer events that mark startup-transient work still happening.
#: Steady state is reached when the last of these ends.
_TRANSIENT_PREFIXES = ("translate.", "warmstart.", "chain.", "hotspot.")


def perturb_source(source: str, rank: int, seed: int) -> str:
    """Give one instance a unique image (``one_per_vm`` policy).

    Appends an unreachable padding block *after* the program's final
    byte — a labeled ``mov`` the program never jumps to — so the image
    bytes (and therefore the content fingerprint every cache key hangs
    off) are unique per rank while the architected outcome is
    bit-identical to the gold image's.
    """
    marker = (seed * 100003 + rank * 257 + 0x1000) & 0x7FFFFFFF
    return (f"{source.rstrip()}\n"
            f"fleet_pad_{rank}:\n"
            f"    mov eax, {marker}\n")


def steady_state_cycle(trace_events: List[Dict]) -> float:
    """Simulated cycle at which the startup transient ended.

    The last moment any translation-stack work happened: BBT/SBT
    slices count until ``ts + dur``; warm-start loads, chain edges and
    hotspot promotions are instants.  A run that never translated
    (fully warm and pre-chained, or pure interpretation) is steady from
    cycle 0.
    """
    steady = 0.0
    for event in trace_events:
        if not event.get("name", "").startswith(_TRANSIENT_PREFIXES):
            continue
        end = event.get("ts", 0.0) + event.get("dur", 0.0)
        if end > steady:
            steady = end
    return steady


def _boot_instance(spec: Dict) -> Dict:
    """Boot one fleet instance; top-level and dict-in/dict-out so the
    spawn-based process pool can pickle it.

    The instance pulls from the shared cache named by the spec string
    ``spec["cluster"]`` (warm start through a
    :class:`RemoteRepository` with **no** local fallback — degradation
    goes straight to cold translation), runs the workload, then
    captures its translations for the engine to publish later.  It
    never pushes: see the module determinism contract.
    """
    config = resolve_config(spec["config"]).with_(trace=True)
    vm = CoDesignedVM(config, hot_threshold=spec["hot_threshold"])
    vm.load(assemble(spec["source"]))
    remote = RemoteRepository(
        spec["cluster"], local=None,
        timeout=spec["timeout"], retries=spec["retries"],
        request_budget=spec["request_budget"],
        jitter_seed=spec["instance_seed"])
    remote.bind_trace_context(
        TraceContext.for_boot(spec["instance_seed"], spec["rank"]))
    injector = None
    if spec["faults"]:
        injector = FaultInjector(spec["instance_seed"], spec["faults"])
    try:
        if injector is not None:
            with injecting(injector):
                load_report = vm.warm_start(remote)
                vm.run(max_instructions=spec["max_instructions"])
        else:
            load_report = vm.warm_start(remote)
            vm.run(max_instructions=spec["max_instructions"])
    finally:
        remote.close()
    records = capture_translations(vm.runtime.directory, vm.state.memory)
    stats = vm.stats()
    state = vm.state
    return {
        "rank": spec["rank"],
        "exit_code": state.exit_code,
        "output": list(state.output),
        "regs": list(state.regs),
        "flags": [state.cf, state.zf, state.sf, state.of],
        "records": records,
        "config_fp": config_fingerprint(vm.config),
        "image_fp": image_fingerprint(vm._image),
        "records_loaded": load_report.loaded,
        "records_pulled": remote.remote_stats.records_pulled,
        "total_cycles": stats["total_cycles"],
        "blocks_translated": stats["blocks_translated"],
        "superblocks_translated": stats["superblocks_translated"],
        "remote": remote.remote_stats.to_dict(),
        "injected": dict(injector.injected) if injector else {},
        "trace_events": [event.to_trace_event()
                         for event in vm.tracer.events],
    }


@dataclass
class InstanceResult:
    """One instance's boot, reduced to deterministic measurements."""

    rank: int
    image_fp: str
    exit_code: Optional[int]
    output: List[object]
    tts_cycles: float            # time-to-steady-state (simulated)
    total_cycles: float
    records_loaded: int          # warm-start records materialized
    records_pulled: int          # records the pull returned
    push_written: int = 0        # engine-published new objects
    push_deduped: int = 0        # engine-published already-present
    blocks_translated: int = 0
    superblocks_translated: int = 0
    remote: Dict = field(default_factory=dict)
    injected: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: raw per-instance trace events (export-only; never in reports)
    trace_events: List[Dict] = field(default_factory=list)

    @property
    def arch_ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict:
        return {
            "rank": self.rank,
            "image_fp": self.image_fp[:12],
            "exit_code": self.exit_code,
            "tts_cycles": self.tts_cycles,
            "total_cycles": self.total_cycles,
            "records_loaded": self.records_loaded,
            "records_pulled": self.records_pulled,
            "push_written": self.push_written,
            "push_deduped": self.push_deduped,
            "blocks_translated": self.blocks_translated,
            "superblocks_translated": self.superblocks_translated,
            "remote": dict(self.remote),
            "injected": dict(sorted(self.injected.items())),
            "arch_ok": self.arch_ok,
            "problems": list(self.problems),
        }


@dataclass
class FleetResult:
    """One scenario's fleet, fully booted and checked."""

    scenario: FleetScenario
    instances: List[InstanceResult]
    server: Dict                  # ServerStats.to_dict() snapshot
    baseline: Dict                # fault-free architected reference
    wall_ms: float = 0.0          # non-canonical (ops section only)
    #: --collect artifacts (None on plain runs).  ``telemetry`` holds
    #: the collector's {"canonical", "ops"} snapshot pair; the spans
    #: and publish events feed the trace export only, never reports.
    telemetry: Optional[Dict] = None
    server_spans: Optional[List[Dict]] = None
    publish_events: Optional[List[Dict]] = None

    @property
    def arch_ok(self) -> bool:
        return all(instance.arch_ok for instance in self.instances)

    def to_dict(self, canonical: bool = True) -> Dict:
        doc = {
            "scenario": self.scenario.to_dict(),
            "baseline": dict(self.baseline),
            "arch_ok": self.arch_ok,
            "instances": [i.to_dict() for i in self.instances],
            "server": _strip_latency(self.server)
            if canonical else dict(self.server),
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry[
                "canonical" if canonical else "ops"]
        if not canonical:
            doc["ops"] = {"wall_ms": self.wall_ms}
        return doc


def _merge_server_stats(stats_by_target: Dict[str, Dict]) -> Dict:
    """Aggregate the servers' stats into one cluster-wide summary:
    numbers sum and nested dicts (the per-op request counters) merge
    recursively; the wall-clock ``latency`` sections stay apart, one
    per target — summing percentiles across servers would be
    meaningless, and canonical reports strip them anyway."""
    merged: Dict = {}
    for stats in stats_by_target.values():
        _merge_counters(merged,
                        {key: value for key, value in stats.items()
                         if key != "latency"})
    merged["latency"] = {target: stats["latency"]
                         for target, stats in stats_by_target.items()}
    return merged


def _merge_counters(target: Dict, source: Dict) -> None:
    for key, value in source.items():
        if isinstance(value, dict):
            node = target.setdefault(key, {})
            if isinstance(node, dict):
                _merge_counters(node, value)
        elif isinstance(value, bool):
            target[key] = target.get(key, False) or value
        elif isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value
        else:
            target.setdefault(key, value)


def _strip_latency(server: Dict) -> Dict:
    """Server stats minus the wall-clock latency section (canonical
    reports must be byte-stable across hosts)."""
    return {key: value for key, value in server.items()
            if key != "latency"}


class _CycleClock:
    """Settable simulated-cycle clock for the engine's publish lane.

    The engine publishes each instance's translations *after* its boot
    finished, so the natural cycle stamp for a publish span is that
    instance's time-to-steady-state — set by :class:`_Publisher` right
    before each push.  Wall clocks never enter the trace.
    """

    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self) -> float:
        return self.value


class _Publisher:
    """Trace instrumentation for the engine's publish loop (--collect).

    Binds a cycle-clocked :class:`EventTracer` plus a per-rank
    ``publish`` trace lane to the push client, so every engine-side
    ``push`` emits a ``remote.push`` slice carrying the propagated span
    id the server's span buffer will name as its parent.
    """

    def __init__(self, scenario: FleetScenario, push_client) -> None:
        self.scenario = scenario
        self.client = push_client
        self.clock = _CycleClock()
        self.tracer = EventTracer(clock=self.clock)
        push_client.bind_tracer(self.tracer)

    def before(self, result: Dict) -> None:
        """Stamp the next publish with its instance's steady cycle and
        a fresh per-rank publish lane."""
        rank = result["rank"]
        self.clock.value = steady_state_cycle(result["trace_events"])
        self.client.bind_trace_context(TraceContext.for_boot(
            self.scenario.seed * 100003 + rank, rank, lane="publish"))

    def events(self) -> List[Dict]:
        return [event.to_trace_event() for event in self.tracer.events]


class FleetEngine:
    """Boots fleets.  ``workdir`` (optional) hosts the scratch server
    repositories; without one each run uses a private temp dir."""

    def __init__(self, workdir=None) -> None:
        self.workdir = str(workdir) if workdir is not None else None

    # -- scenario pieces ----------------------------------------------------

    @staticmethod
    def _sources(scenario: FleetScenario) -> List[str]:
        if scenario.workload not in PROGRAMS:
            raise ValueError(
                f"unknown workload {scenario.workload!r}; choose from "
                f"{sorted(PROGRAMS)}")
        gold = PROGRAMS[scenario.workload]
        if scenario.image_policy == "one":
            return [gold] * scenario.n
        return [perturb_source(gold, rank, scenario.seed)
                for rank in range(scenario.n)]

    @staticmethod
    def _baseline(scenario: FleetScenario, gold: str) -> Dict:
        """Fault-free local cold run: the architected reference every
        instance (any rank, any image perturbation) must match."""
        config = resolve_config(scenario.config)
        vm = CoDesignedVM(config, hot_threshold=scenario.hot_threshold)
        vm.load(assemble(gold))
        vm.run(max_instructions=scenario.max_instructions)
        state = vm.state
        return {
            "exit_code": state.exit_code,
            "output": list(state.output),
            "regs": list(state.regs),
            "flags": [state.cf, state.zf, state.sf, state.of],
        }

    @staticmethod
    def _check_instance(result: Dict, baseline: Dict) -> List[str]:
        problems = []
        for key in ("exit_code", "output", "regs", "flags"):
            if result[key] != baseline[key]:
                problems.append(
                    f"{key} {result[key]!r} != baseline {baseline[key]!r}")
        return problems

    @staticmethod
    def _prime(scenario: FleetScenario, sources: List[str],
               push_client) -> None:
        """Warm-repository policy: pre-populate the servers with each
        distinct image's translations, pushed through the client
        before any instance boots (so priming never contends with the
        fleet).  ``one_per_vm`` priming costs one cold run per rank."""
        config = resolve_config(scenario.config)
        for source in dict.fromkeys(sources):   # distinct, rank order
            vm = CoDesignedVM(config,
                              hot_threshold=scenario.hot_threshold)
            vm.load(assemble(source))
            vm.run(max_instructions=scenario.max_instructions)
            vm.save_translations(push_client)

    # -- the run ------------------------------------------------------------

    def run(self, scenario: FleetScenario) -> FleetResult:
        started = time.perf_counter()
        cleanup = self.workdir is None
        workdir = self.workdir or tempfile.mkdtemp(prefix="repro-fleet-")
        repo_root = Path(workdir) / f"fleet-repo-{scenario.seed}"
        if repo_root.exists():
            shutil.rmtree(repo_root)
        try:
            result = self._run_in(scenario, repo_root)
        finally:
            if cleanup:
                shutil.rmtree(workdir, ignore_errors=True)
        result.wall_ms = (time.perf_counter() - started) * 1000.0
        log.info("fleet %s: %d instance(s), arch_ok=%s",
                 scenario.label(), scenario.n, result.arch_ok)
        return result

    def _run_in(self, scenario: FleetScenario,
                repo_root: Path) -> FleetResult:
        """Host a live shards x replicas :class:`LocalCluster` under
        ``repo_root``, prime it *through* the client (so warm stores
        carry replicated, merged manifests), rot each replica store
        independently under disk fault cocktails, and boot every
        instance through its own client.  Priming and publishing
        happen outside the herd's pull window, in rank order — the
        determinism contract."""
        sources = self._sources(scenario)
        baseline = self._baseline(scenario, PROGRAMS[scenario.workload])
        grid = LocalCluster(repo_root, shards=scenario.shards,
                            replicas=scenario.replicas,
                            max_queue_depth=scenario.max_queue_depth)
        spec = grid.start()
        push_client = RemoteRepository(
            spec, local=None, timeout=scenario.timeout,
            retries=scenario.retries)
        collector, publisher = self._attach_collector(
            scenario, spec, push_client)
        try:
            if scenario.warm:
                self._prime(scenario, sources, push_client)
            disk_faults = [name for name in scenario.faults
                           if make_fault(name).mangle is not None]
            if disk_faults:
                injector = FaultInjector(scenario.seed, disk_faults)
                for key in sorted(grid.servers):
                    injector.mangle_repository(grid.repo_dir(*key))
            raw = self._boot_fleet(scenario, sources, spec.to_string(),
                                   push_client, publisher)
            telemetry = self._collect(collector, publisher, raw,
                                      push_client)
            server_stats = _merge_server_stats(
                {f"{group}/replica{index}":
                 grid.servers[group, index].stats.to_dict()
                 for group, index in sorted(grid.servers)})
        finally:
            push_client.close()
            grid.stop()
            if collector is not None:
                collector.close()
        instances = self._instances(raw, baseline)
        return FleetResult(scenario=scenario, instances=instances,
                           server=server_stats, baseline=baseline,
                           **telemetry)

    # -- telemetry (--collect) ----------------------------------------------

    @staticmethod
    def _attach_collector(scenario: FleetScenario, spec, push_client):
        """Build the run's :class:`ClusterCollector` + publish-lane
        instrumentation (both ``None`` on plain runs).  The baseline
        scrape happens before any instance boots so the first real
        scrape's deltas describe the fleet, not server startup."""
        if not scenario.collect:
            return None, None
        from repro.obs.collector import ClusterCollector
        collector = ClusterCollector(spec, timeout=scenario.timeout,
                                     retries=scenario.retries)
        collector.scrape()
        return collector, _Publisher(scenario, push_client)

    @staticmethod
    def _collect(collector, publisher, raw: List[Dict],
                 push_client) -> Dict:
        """Final scrape + client-stat fold; returns the FleetResult
        telemetry kwargs (empty on plain runs)."""
        if collector is None:
            return {}
        for result in raw:
            collector.observe_client_stats(result["remote"])
        publishing = push_client.remote_stats.to_dict()
        # _publish credited each push's records to its instance
        del publishing["records_pushed"]
        collector.observe_client_stats(publishing)
        collector.scrape()
        return {
            "telemetry": {
                "canonical": collector.snapshot(canonical=True),
                "ops": collector.snapshot(canonical=False),
            },
            "server_spans": collector.span_entries(),
            "publish_events": publisher.events(),
        }

    def _instances(self, raw: List[Dict],
                   baseline: Dict) -> List[InstanceResult]:
        instances = []
        for rank, result in enumerate(raw):
            instances.append(InstanceResult(
                rank=rank,
                image_fp=result["image_fp"],
                exit_code=result["exit_code"],
                output=result["output"],
                tts_cycles=steady_state_cycle(result["trace_events"]),
                total_cycles=result["total_cycles"],
                records_loaded=result["records_loaded"],
                records_pulled=result["records_pulled"],
                push_written=result["push_written"],
                push_deduped=result["push_deduped"],
                blocks_translated=result["blocks_translated"],
                superblocks_translated=result["superblocks_translated"],
                remote=result["remote"],
                injected=result["injected"],
                problems=self._check_instance(result, baseline),
                trace_events=result["trace_events"]))
        return instances

    def _boot_fleet(self, scenario: FleetScenario, sources: List[str],
                    cluster: str, push_client,
                    publisher: Optional[_Publisher]) -> List[Dict]:
        specs = [{
            "rank": rank,
            "source": sources[rank],
            "config": scenario.config,
            "hot_threshold": scenario.hot_threshold,
            "max_instructions": scenario.max_instructions,
            "cluster": cluster,
            "timeout": scenario.timeout,
            "retries": scenario.retries,
            "request_budget": scenario.request_budget,
            "faults": [name for name in scenario.faults
                       if make_fault(name).mangle is None],
            "instance_seed": scenario.seed * 100003 + rank,
        } for rank in range(scenario.n)]

        if scenario.boot_policy == "one_then_others":
            first = _boot_instance(specs[0])
            self._publish(first, push_client, publisher)
            rest = self._pool_boot(scenario, specs[1:])
            results = [first] + rest
            for result in rest:
                self._publish(result, push_client, publisher)
        else:
            results = self._pool_boot(scenario, specs)
            for result in results:
                self._publish(result, push_client, publisher)
        return results

    @staticmethod
    def _publish(result: Dict, push_client,
                 publisher: Optional[_Publisher] = None) -> None:
        """Push one instance's captured translations (engine-side, in
        rank order — see the determinism contract)."""
        if publisher is not None:
            publisher.before(result)
        push_client.save(result["records"], result["config_fp"],
                         result["image_fp"])
        push = push_client.last_push or {}
        result["push_written"] = push.get("written", 0)
        result["push_deduped"] = push.get("deduped", 0)
        result["remote"]["records_pushed"] = \
            len([r for r in result["records"] if r is not None])

    def _pool_boot(self, scenario: FleetScenario,
                   specs: List[Dict]) -> List[Dict]:
        if not specs:
            return []
        workers = scenario.effective_workers
        if workers == 1:
            return [_boot_instance(spec) for spec in specs]
        if scenario.pool == "process":
            import multiprocessing
            context = multiprocessing.get_context("spawn")
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context)
        else:
            executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="fleet-boot")
        with executor:
            return list(executor.map(_boot_instance, specs))


def run_sweep(scenarios, workdir=None, progress=None) -> List[FleetResult]:
    """Run every scenario in order; ``progress`` (optional callable)
    sees each :class:`FleetResult` as it completes."""
    engine = FleetEngine(workdir=workdir)
    results = []
    for scenario in scenarios:
        result = engine.run(scenario)
        results.append(result)
        if progress is not None:
            progress(result)
    return results
