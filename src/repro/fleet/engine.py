"""Fleet engine — boot herds of CoDesignedVM instances against one
shared translation cache.

One :meth:`FleetEngine.run` call executes one
:class:`~repro.fleet.grid.FleetScenario`: it hosts a private
``shards`` x ``replicas`` :class:`~repro.cluster.manager.LocalCluster`
over scratch repositories (1x1, one cache server, unless the scenario
says otherwise), boots ``scenario.n`` instances — the herd on
``scenario.workers`` forked boot processes — and collects per-instance
startup ledgers, tracer events, warm-start reports and client
degradation counters into a :class:`FleetResult`.
Every instance warm-starts *through* the servers with its own
:class:`~repro.persist.remote.RemoteRepository` client, so the herd
exercises the exact pull/validate/degrade path a real consolidation
host would.  A herd is never faulted: chaos through one server or a
cluster is :func:`repro.faults.harness.run_faulted`'s.

Determinism contract (the acceptance bar is byte-identical reports at
the same seed, under real process concurrency):

* **pulls only ever see a static store.**  Under ``all_at_once`` the
  whole herd boots against the initial store state; under
  ``one_then_others`` rank 0 boots alone, the engine publishes its
  translations, and only then does the rest of the herd start.  No
  instance's pull races another instance's push.
* **pushes are performed by the engine**, sequentially in boot-rank
  order, through one client — boot processes only *capture* their
  translations and hand back the records their own warm start did not
  install; an instance with none makes no push.  Dedup counts are
  therefore a pure function of the scenario, not of process
  scheduling.
* **per-instance measurements are simulated-cycle**, never wall-clock:
  time-to-steady-state comes from the instance's own tracer stream on
  the :class:`~repro.obs.ledger.CycleLedger` clock.  Wall-clock lives
  only in the non-canonical ``ops`` section of the result.

The per-instance invariant is the same as everywhere else in the
stack: no server behaviour — cold store, contended lease, shed
request — may change an instance's architected results.  The engine
checks every instance's :class:`~repro.faults.harness.ArchOutcome`
against a local cold run's and records the diff in
:attr:`InstanceResult.problems`.

Boot processes (:class:`_BootPool`) are forked before the engine starts
any server thread or opens any socket, and wait on a pipe until the
parent releases them with the cluster spec.  A child touches only what
it makes itself — its VMs, its clients and their sockets — never a
server, a lock or a client the parent holds; it hands its results back
pickled over a second pipe and leaves through :func:`os._exit`, so no
inherited ``atexit`` hook, buffer or ``finally`` of the parent runs
twice.
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.manager import LocalCluster
from repro.core.config import resolve_config
from repro.core.vm import CoDesignedVM
from repro.faults.harness import ArchOutcome
from repro.fleet.grid import FleetScenario
from repro.isa.x86lite.assembler import assemble
from repro.memory.loader import Image
from repro.obs.telemetry import TraceContext
from repro.obs.tracer import EventTracer
from repro.persist import (config_fingerprint, image_fingerprint,
                           serialize_translation)
from repro.persist.remote import RemoteRepository
from repro.workloads.programs import PROGRAMS

log = logging.getLogger("repro.fleet")

#: Tracer events that mark startup-transient work still happening.
#: Steady state is reached when the last of these ends.
_TRANSIENT_PREFIXES = ("translate.", "warmstart.", "chain.", "hotspot.")
#: Every client's per-attempt timeout (seconds) and retries per request.
TIMEOUT = 5.0
RETRIES = 3


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


@dataclass
class InstanceResult:
    """One instance's boot, reduced to deterministic measurements."""

    rank: int
    image_fp: str
    outcome: ArchOutcome         # what the baseline check compares
    tts_cycles: float            # time-to-steady-state (simulated)
    total_cycles: float
    records_loaded: int          # warm-start records materialized
    records_pulled: int          # records the pull returned
    push_written: int = 0        # engine-published new objects
    push_deduped: int = 0        # engine-published already-present
    blocks_translated: int = 0
    superblocks_translated: int = 0
    remote: Dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: raw per-instance trace events (export-only; never in reports)
    trace_events: List[Dict] = field(default_factory=list)
    #: captured translations under ``config_fp``, until the engine
    #: publishes them (never in reports)
    records: List = field(default_factory=list)
    config_fp: str = ""

    @property
    def arch_ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict:
        return {
            "rank": self.rank,
            "image_fp": self.image_fp[:12],
            "exit_code": self.outcome.exit_code,
            "tts_cycles": self.tts_cycles,
            "total_cycles": self.total_cycles,
            "records_loaded": self.records_loaded,
            "records_pulled": self.records_pulled,
            "push_written": self.push_written,
            "push_deduped": self.push_deduped,
            "blocks_translated": self.blocks_translated,
            "superblocks_translated": self.superblocks_translated,
            "remote": dict(self.remote),
            "arch_ok": self.arch_ok,
            "problems": list(self.problems),
        }


def _boot_instance(scenario: FleetScenario, rank: int, image: Image,
                   cluster: str) -> InstanceResult:
    """Boot fleet instance ``rank`` of ``image``.

    The instance pulls from the shared cache named by the spec string
    ``cluster`` (warm start through a :class:`RemoteRepository` with
    **no** local fallback — degradation goes straight to cold
    translation), runs the workload, then captures its translations
    for the engine to publish later: those its warm start did not
    install (a record the loader dropped is captured anew).  It never
    pushes: see the module determinism contract.
    """
    config = resolve_config(scenario.config).with_(trace=True)
    vm = CoDesignedVM(config, hot_threshold=scenario.hot_threshold)
    vm.load(image)
    instance_seed = scenario.seed * 100003 + rank
    remote = RemoteRepository(
        cluster, local=None, timeout=TIMEOUT, retries=RETRIES,
        request_budget=scenario.request_budget, jitter_seed=instance_seed)
    remote.bind_trace_context(TraceContext.for_boot(instance_seed, rank))
    try:
        load_report = vm.warm_start(remote)
        vm.run(max_instructions=scenario.max_instructions)
    finally:
        remote.close()
    stats = vm.stats()
    trace_events = [event.to_trace_event() for event in vm.tracer.events]
    # serialize only what the warm start did not install (by identity)
    loaded = {id(translation) for translation in load_report.installed}
    directory = vm.runtime.directory
    unloaded = [serialize_translation(translation, vm.state.memory)
                for cache in (directory.bbt_cache, directory.sbt_cache)
                for translation in cache.translations
                if id(translation) not in loaded]
    return InstanceResult(
        rank=rank,
        image_fp=image_fingerprint(vm._image),
        outcome=ArchOutcome.of(vm),
        tts_cycles=steady_state_cycle(trace_events),
        total_cycles=stats["total_cycles"],
        records_loaded=load_report.loaded,
        records_pulled=remote.remote_stats.records_pulled,
        blocks_translated=stats["blocks_translated"],
        superblocks_translated=stats["superblocks_translated"],
        remote=remote.remote_stats.to_dict(),
        trace_events=trace_events,
        records=[record for record in unloaded if record is not None],
        config_fp=config_fingerprint(vm.config))


@dataclass
class FleetResult:
    """One scenario's fleet, fully booted and checked."""

    scenario: FleetScenario
    instances: List[InstanceResult]
    server: Dict                  # ServerStats.to_dict() snapshot
    baseline: Dict                # asdict() of the baseline ArchOutcome
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

    def before(self, instance: InstanceResult) -> None:
        """Stamp the next publish with its instance's steady cycle and
        a fresh per-rank publish lane."""
        rank = instance.rank
        self.clock.value = instance.tts_cycles
        self.client.bind_trace_context(TraceContext.for_boot(
            self.scenario.seed * 100003 + rank, rank, lane="publish"))

    def events(self) -> List[Dict]:
        return [event.to_trace_event() for event in self.tracer.events]


@dataclass
class _Child:
    """One boot process, as its parent sees it: the pipe ends the
    parent still holds are ``None`` once closed."""

    pid: int
    ranks: Sequence[int]
    release: Optional[int]       # write end: the cluster spec, then EOF
    results: Optional[int]       # read end: the pickled results


class _BootPool:
    """The herd's boot processes: ``min(workers, len(ranks))`` children
    forked on construction; child *k* of *w* boots ``ranks[k::w]``, in
    rank order, once :meth:`boot` releases it.  Leaving the ``with``
    block reaps every child: one whose results were not read is killed
    first, whether it is still waiting, booting, or failed."""

    def __init__(self, scenario: FleetScenario, images: List[Image],
                 ranks: Sequence[int]) -> None:
        self.children: List[_Child] = []
        width = min(scenario.workers, len(ranks))
        # a child must not flush what the parent had buffered
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for k in range(width):
                self._fork(scenario, images, ranks[k::width])
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_BootPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self, scenario: FleetScenario, images: List[Image],
              ranks: Sequence[int]) -> None:
        release_read, release_write = os.pipe()
        results_read, results_write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (release_read, release_write, results_read,
                       results_write):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                for fd in [release_write, results_read] + [
                        fd for child in self.children
                        for fd in (child.release, child.results)]:
                    os.close(fd)
                _boot_share(scenario, images, ranks, release_read,
                            results_write)
                code = 0
            finally:
                os._exit(code)
        os.close(release_read)
        os.close(results_write)
        self.children.append(_Child(pid, ranks, release_write,
                                    results_read))

    def boot(self, cluster: str) -> List[InstanceResult]:
        """Release every child with the spec string ``cluster`` and
        gather what they booted, merged in rank order.  A child's
        failure is raised here, naming its rank."""
        for child in self.children:
            with os.fdopen(child.release, "wb") as pipe:
                child.release = None
                pipe.write(cluster.encode())
        instances: List[InstanceResult] = []
        for child in self.children:
            with os.fdopen(child.results, "rb") as pipe:
                child.results = None
                try:
                    payload = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(
                        f"fleet boot process {child.pid} (ranks "
                        f"{list(child.ranks)}) exited without its results")
            if payload[0] == "failed":
                _, rank, error, trace = payload
                raise RuntimeError(f"fleet instance {rank} failed in its "
                                   f"boot process: {error}\n{trace}")
            instances.extend(payload[1])
        return sorted(instances, key=lambda instance: instance.rank)

    def close(self) -> None:
        for child in self.children:
            if child.results is not None:   # its results were never read
                os.kill(child.pid, signal.SIGKILL)
            for fd in (child.release, child.results):
                if fd is not None:
                    os.close(fd)
            os.waitpid(child.pid, 0)
        self.children = []


def _boot_share(scenario: FleetScenario, images: List[Image],
                ranks: Sequence[int], release: int, results: int) -> None:
    """A boot process's life: wait for the parent's release, boot
    ``ranks`` one after another, and hand back their results — or the
    rank that failed and how — pickled.  An empty release means the
    parent gave up before the herd: nothing boots."""
    with os.fdopen(release, "rb") as pipe:
        cluster = pipe.read().decode()
    if not cluster:
        return
    instances, rank = [], ranks[0]
    try:
        for rank in ranks:
            instances.append(_boot_instance(scenario, rank, images[rank],
                                            cluster))
        payload: Tuple = ("booted", instances)
    except Exception as error:      # raised again by the parent
        payload = ("failed", rank, repr(error), traceback.format_exc())
    with os.fdopen(results, "wb") as pipe:
        pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)


class FleetEngine:
    """Boots fleets.  ``workdir`` (optional) hosts the scratch server
    repositories; without one each run uses a private temp dir."""

    def __init__(self, workdir=None) -> None:
        self.workdir = str(workdir) if workdir is not None else None

    # -- scenario pieces ----------------------------------------------------

    @staticmethod
    def _images(scenario: FleetScenario) -> Tuple[Image, List[Image]]:
        """The gold image and each rank's: each distinct source assembled
        once and its ``Image`` shared (``load_image`` copies it in)."""
        gold = PROGRAMS[scenario.workload]
        sources = [gold] * scenario.n if scenario.image_policy == "one" \
            else [perturb_source(gold, rank, scenario.seed)
                  for rank in range(scenario.n)]
        images = {source: assemble(source)
                  for source in dict.fromkeys([gold, *sources])}
        return images[gold], [images[source] for source in sources]

    @staticmethod
    def _baseline(scenario: FleetScenario, gold: Image) -> ArchOutcome:
        """Local cold run: the architected reference every instance
        (any rank, any image perturbation) must match."""
        config = resolve_config(scenario.config)
        vm = CoDesignedVM(config, hot_threshold=scenario.hot_threshold)
        vm.load(gold)
        vm.run(max_instructions=scenario.max_instructions)
        return ArchOutcome.of(vm)

    @staticmethod
    def _prime(scenario: FleetScenario, images: List[Image],
               push_client) -> None:
        """Warm-repository policy: pre-populate the servers with each
        distinct image's translations, pushed through the client
        before any instance boots (so priming never contends with the
        fleet).  ``one_per_vm`` priming costs one cold run per rank."""
        config = resolve_config(scenario.config)
        for image in {id(image): image for image in images}.values():
            vm = CoDesignedVM(config,
                              hot_threshold=scenario.hot_threshold)
            vm.load(image)
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
        carry replicated, merged manifests), and boot every instance
        through its own client.  Priming and publishing happen outside
        the herd's pull window, in rank order — the determinism
        contract.  The herd's boot processes are forked first, while
        the engine holds no server thread and no socket."""
        gold, images = self._images(scenario)
        first = 1 if scenario.boot_policy == "one_then_others" else 0
        with _BootPool(scenario, images, range(first, scenario.n)) as pool:
            baseline = self._baseline(scenario, gold)
            grid = LocalCluster(repo_root, shards=scenario.shards,
                                replicas=scenario.replicas,
                                max_queue_depth=scenario.max_queue_depth)
            spec = grid.start()
            push_client = RemoteRepository(spec, local=None,
                                           timeout=TIMEOUT, retries=RETRIES)
            collector, publisher = self._attach_collector(
                scenario, spec, push_client)
            try:
                if scenario.warm:
                    self._prime(scenario, images, push_client)
                instances = self._boot_fleet(scenario, images,
                                             spec.to_string(), push_client,
                                             publisher, pool)
                telemetry = self._collect(collector, publisher, instances,
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
        for instance in instances:
            instance.problems = baseline.diff(instance.outcome)
        return FleetResult(scenario=scenario, instances=instances,
                           server=server_stats, baseline=asdict(baseline),
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
        collector = ClusterCollector(spec, timeout=TIMEOUT,
                                     retries=RETRIES)
        collector.scrape()
        return collector, _Publisher(scenario, push_client)

    @staticmethod
    def _collect(collector, publisher, instances: List[InstanceResult],
                 push_client) -> Dict:
        """Final scrape + client-stat fold; returns the FleetResult
        telemetry kwargs (empty on plain runs)."""
        if collector is None:
            return {}
        for instance in instances:
            collector.observe_client_stats(instance.remote)
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

    def _boot_fleet(self, scenario: FleetScenario, images: List[Image],
                    cluster: str, push_client,
                    publisher: Optional[_Publisher], pool: "_BootPool"
                    ) -> List[InstanceResult]:
        """Under ``one_then_others`` rank 0 boots here, alone, and is
        published before ``pool`` is released; the pool's ranks are
        published in rank order once every one of them has booted."""
        instances = []
        if scenario.boot_policy == "one_then_others":
            instances.append(_boot_instance(scenario, 0, images[0], cluster))
            self._publish(instances[0], push_client, publisher)
        herd = pool.boot(cluster)
        for instance in herd:
            self._publish(instance, push_client, publisher)
        return instances + herd

    @staticmethod
    def _publish(instance: InstanceResult, push_client,
                 publisher: Optional[_Publisher] = None) -> None:
        """Push one instance's captured translations (engine-side, in
        rank order — see the determinism contract); an instance whose
        warm start brought in all of them makes no request."""
        if not instance.records:
            return
        if publisher is not None:
            publisher.before(instance)
        push_client.save(instance.records, instance.config_fp,
                         instance.image_fp)
        push = push_client.last_push or {}
        instance.push_written = push.get("written", 0)
        instance.push_deduped = push.get("deduped", 0)
        instance.remote["records_pushed"] = len(instance.records)
        instance.records = []       # published: a result keeps no copy


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
