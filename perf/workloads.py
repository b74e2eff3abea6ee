"""The four benchmark workloads.

Each workload is a closed loop with one client: the next sample starts
when the previous one has finished.  A sample runs the same three
operations everywhere, so every end-to-end metric exists on every
workload:

* ``boot``    — fresh ``CoDesignedVM`` -> ``load`` -> (warm start) ->
  ``run`` to exit (``herd``: one ``FleetEngine.run``, divided by n);
* ``publish`` — ``save_translations`` of a booted VM into an *empty*
  store of the workload's kind (local directory / cache server / 2x2
  cluster);
* ``interp``  — the same image to exit under the Ref configuration,
  which is the plain interpreter.

Only those calls are timed; servers, clusters and store directories are
created and removed between them.  Every sample is checked against the
interpreter's architected state (``reference.py``), and a sample whose
simulated cycle count differs from the first one's is a failure too:
host speed is what the benchmark measures, simulated time must not
move.

``sample`` makes each operation as one public call.  ``traced_sample``
makes the same operations stage by stage, each stage inside a span
named after the layer it calls into.
"""

from __future__ import annotations

import gc
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cacheserver import CacheServer
from repro.cluster import ClusterRepository, LocalCluster
from repro.core import CoDesignedVM, ref_superscalar, vm_soft
from repro.fleet import FleetEngine, FleetScenario
from repro.isa.x86lite import assemble
from repro.persist import (RemoteRepository, TranslationRepository,
                           WarmStartLoader, capture_translations,
                           config_fingerprint, image_fingerprint)
from repro.workloads.programs import PROGRAMS

import gen
from reference import interpreter_reference, mismatches
from spans import SpanRecorder
from stats import calibrate, clocks, elapsed

#: (wall seconds, user-mode CPU seconds), as ``stats.clocks`` reads them
Clocks = Tuple[float, float]

#: the operations of one sample; each counts as one attempt
OPERATIONS = ("boot", "publish", "interp")

#: the herd scenario (``seed`` is filled in from ``--seed``)
HERD = dict(n=12, boot_policy="one_then_others", image_policy="one",
            warm=False, workload="quicksort", workers=2, shards=2,
            replicas=2)


class SampleResult:
    """Per operation of one sample: wall seconds, the same in
    calibration units, the calibration used; the user-mode CPU seconds
    of operation and calibration; and what was wrong with which
    operation."""

    def __init__(self) -> None:
        self.timings: Dict[str, Dict[str, float]] = {}
        self.problems: List[Tuple[str, str]] = []

    def record(self, operation: str, spent: Clocks, before: Clocks,
               after: Clocks, divisor: int = 1) -> None:
        """``spent``: the operation's (wall, user) seconds;
        ``before``/``after``: the calibration kernel's, right before
        and right after the operation, which sits between the two;
        ``divisor``: boots the one call stands for."""
        calib = (before[0] + after[0]) / 2.0
        self.timings[operation] = {
            "s": spent[0] / divisor, "cu": spent[0] / divisor / calib,
            "calib": calib, "user_s": spent[1] / divisor,
            "user_calib": (before[1] + after[1]) / 2.0}

    def check(self, operation: str, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append((operation, problem))

    @property
    def failed_operations(self) -> int:
        return len({operation for operation, _ in self.problems})


def mean_timing(repeats: List[Dict[str, float]]) -> Dict[str, float]:
    """One timing for an operation a sample made several times."""
    return {key: sum(timing[key] for timing in repeats) / len(repeats)
            for key in repeats[0]}


def settle() -> None:
    """Leave nothing of the previous operation for the next one to pay:
    collect the heap (a herd leaves a lot of garbage), and let the file
    system commit what is pending (the stores just written and removed
    otherwise make the next operation's file creations up to twice as
    slow, for seconds)."""
    gc.collect()
    os.sync()


@contextmanager
def calibrated(result: SampleResult, operation: str,
               divisor: int = 1) -> Iterator[None]:
    """Time the body as one operation of a sample, on both clocks of
    ``stats.clocks``, and record it.

    ``settle`` runs first, and the calibration kernel right before and
    right after the body: the host's speed changes several times a
    second, so a calibration taken a second away says little about a
    20 ms operation.
    """
    settle()
    before = calibrate()
    started = clocks()
    yield
    spent = elapsed(started)
    result.record(operation, spent, before, calibrate(), divisor)


def timed_op(result: SampleResult, operation: str,
             fn: Callable[[], object], divisor: int = 1) -> object:
    with calibrated(result, operation, divisor):
        return fn()


@contextmanager
def op_span(recorder: SpanRecorder, result: SampleResult, operation: str,
            divisor: int = 1) -> Iterator[Dict]:
    """``calibrated`` for the traced run: the body also becomes a span
    of its own (a root span, in a sample)."""
    with calibrated(result, operation, divisor), \
            recorder.span(operation) as span:
        yield span


class Workload:
    """Shared sample bookkeeping; subclasses fill in the operations."""

    name = ""
    why = ""
    hot_threshold = 50
    #: interpreter runs timed together, so that the quotient
    #: ``vm_vs_interp`` never rests on a few milliseconds
    interp_repeats = 1
    #: publishes per sample, each a calibrated operation of its own
    #: into an empty store.  ``publish_cu`` is made of user-mode CPU
    #: time, which the kernel only samples (4 ms tick): where a publish
    #: takes 10 or 20 ms, one per sample would leave a run a quarter of
    #: a second of publishing, and its figure to chance
    publish_repeats = 1
    #: groups of ``layers.py`` whose layers this workload's operations
    #: pass through; the other layers report 0
    layer_groups: Tuple[str, ...] = ()

    def __init__(self, seed: int, store_root: Path) -> None:
        self.seed = seed
        self.store_root = Path(store_root)
        self.config = vm_soft().with_(hot_threshold=self.hot_threshold)
        self.source = ""
        self.image = None
        self.reference: Dict = {}
        #: simulated cycles of the first boot; later boots must equal it
        self.sim_cycles: Optional[float] = None

    # -- pieces the operations are made of ----------------------------------

    def prepare_image(self, source: str) -> None:
        self.source = source
        self.image = assemble(source)
        self.reference = interpreter_reference(self.image)
        if self.reference["exit_code"] != 0:
            raise RuntimeError(f"{self.name}: program exits with "
                               f"{self.reference['exit_code']}")
        self.sim_cycles = None

    def fingerprints(self) -> Tuple[str, str]:
        return config_fingerprint(self.config), image_fingerprint(self.image)

    def fresh_store(self, label: str) -> Path:
        path = self.store_root / label
        shutil.rmtree(path, ignore_errors=True)
        return path

    def repeat_publish(self, result: SampleResult,
                       publish_once: Callable[[], None]) -> None:
        """``publish_once`` makes one publish as the timed operation
        ``publish`` and checks it; the sample counts with the mean of
        ``publish_repeats`` of them."""
        publishes = []
        for _ in range(self.publish_repeats):
            publish_once()
            publishes.append(result.timings["publish"])
        result.timings["publish"] = mean_timing(publishes)

    def load_vm(self) -> CoDesignedVM:
        vm = CoDesignedVM(self.config)
        vm.load(self.image)
        return vm

    def cold_boot(self):
        vm = self.load_vm()
        return vm, vm.run()

    @contextmanager
    def server(self) -> Iterator[CacheServer]:
        """A live cache server over an empty store; stopped and its
        store removed on the way out."""
        store = self.fresh_store("served")
        server = CacheServer(store)
        server.start()
        try:
            yield server
        finally:
            server.stop()
            shutil.rmtree(store, ignore_errors=True)

    @contextmanager
    def cluster(self, shards: int, replicas: int):
        """A live shards x replicas cluster over empty stores."""
        root = self.fresh_store("grid")
        grid = LocalCluster(root, shards=shards, replicas=replicas)
        try:
            yield grid.start()
        finally:
            grid.stop()
            shutil.rmtree(root, ignore_errors=True)

    # -- checks -------------------------------------------------------------

    def check_boot(self, result: SampleResult, vm: CoDesignedVM,
                   report) -> None:
        wrong = mismatches(vm.state, self.reference)
        result.check("boot", not wrong,
                     f"boot differs from interpreter in {wrong}")
        if self.sim_cycles is None:
            self.sim_cycles = report.total_cycles
        result.check("boot", report.total_cycles == self.sim_cycles,
                     f"simulated cycles moved: {report.total_cycles} "
                     f"!= {self.sim_cycles}")

    def check_published(self, result: SampleResult, written: int,
                        report) -> None:
        expected = report.blocks_translated + report.superblocks_translated
        result.check("publish", written == expected,
                     f"published {written} of {expected} translations")

    def time_interp(self, result: SampleResult,
                    recorder: Optional[SpanRecorder] = None) -> None:
        def run():
            for _ in range(self.interp_repeats):
                vm = CoDesignedVM(ref_superscalar())
                vm.load(self.image)
                vm.run()
            return vm
        if recorder is None:
            vm = timed_op(result, "interp", run, self.interp_repeats)
        else:
            with op_span(recorder, result, "interp", self.interp_repeats):
                vm = run()
        wrong = mismatches(vm.state, self.reference)
        result.check("interp", not wrong,
                     f"Ref config differs from interpreter in {wrong}")

    # -- interface ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def sample(self) -> SampleResult:
        raise NotImplementedError

    def traced_sample(self, recorder: SpanRecorder) -> SampleResult:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.store_root, ignore_errors=True)


class ColdBoot(Workload):
    """Cold VM.soft boot of a generated program; publish into a local
    repository directory."""

    shape = gen.HOT_LOOP
    layer_groups = ("front", "translate", "fusible", "vmm", "save")

    def setup(self) -> None:
        self.prepare_image(gen.generate_source(self.shape, self.seed))
        self.cold_boot()            # imports, caches and allocator warm

    def sample(self) -> SampleResult:
        result = SampleResult()
        vm, report = timed_op(result, "boot", self.cold_boot)
        self.check_boot(result, vm, report)

        def publish_once() -> None:
            store = self.fresh_store("local")
            try:
                written = timed_op(result, "publish",
                                   lambda: vm.save_translations(store))
            finally:
                shutil.rmtree(store, ignore_errors=True)
            self.check_published(result, written, report)
        self.repeat_publish(result, publish_once)
        self.time_interp(result)
        return result

    def traced_sample(self, recorder: SpanRecorder) -> SampleResult:
        result = SampleResult()
        with op_span(recorder, result, "boot"):
            with recorder.span("core.load"):
                vm = self.load_vm()
            with recorder.span("vmm.run"):
                report = vm.run()
        self.check_boot(result, vm, report)
        store = self.fresh_store("local")
        try:
            with op_span(recorder, result, "publish"):
                with recorder.span("persist.capture"):
                    records = capture_translations(vm.runtime.directory,
                                                   vm.state.memory)
                with recorder.span("persist.repo_save"):
                    written = TranslationRepository(store).save(
                        records, *self.fingerprints(),
                        config_name=self.config.name)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        self.check_published(result, written, report)
        self.time_interp(result, recorder)
        return result


class HotLoop(ColdBoot):
    name = "hot_loop"
    why = ("4 blocks run 500 times: >90% of boot time is fusible "
           "micro-op execution under VMM dispatch, translation is idle")
    shape = gen.HOT_LOOP
    publish_repeats = 3         # 11 records, 10 ms a publish


class WideCold(ColdBoot):
    name = "wide_cold"
    why = ("200 blocks run once (the paper's Fig. 3 shape): decode, "
           "crack, BBT emit and install dominate, execution is short")
    shape = gen.WIDE_COLD
    interp_repeats = 3


class ServedBoot(Workload):
    """The ``wide_cold`` image published to, then warm-booted from, a
    fresh cache server on an empty store."""

    name = "served_boot"
    why = ("same image as wide_cold, pushed to and pulled from a live "
           "cache server: persist, wire, server and verifier do the "
           "work, the translator must stay idle")
    interp_repeats = 3
    layer_groups = ("front", "fusible", "vmm", "save", "load", "remote")

    def setup(self) -> None:
        self.prepare_image(gen.generate_source(gen.WIDE_COLD, self.seed))
        #: the VM whose translations every sample publishes
        self.cold_vm, self.cold_report = self.cold_boot()

    def warm_boot(self, address: str):
        vm = self.load_vm()
        remote = RemoteRepository(address, local=None)
        try:
            load_report = vm.warm_start(remote)
        finally:
            remote.close()
        return vm, load_report, vm.run(), remote.remote_stats.to_dict()

    def check_warm(self, result: SampleResult, vm, load_report, report,
                   client: Dict, server: CacheServer) -> None:
        self.check_boot(result, vm, report)
        records = (self.cold_report.blocks_translated
                   + self.cold_report.superblocks_translated)
        result.check("boot", load_report.loaded == records
                     and load_report.dropped == 0,
                     f"warm start loaded {load_report.loaded} of "
                     f"{records}, dropped {load_report.dropped}")
        result.check("boot", report.blocks_translated == 0
                     and report.superblocks_translated == 0,
                     "warm boot translated")
        result.check("boot", client["fallbacks"] == 0, "client fell back")
        result.check("boot", server.stats.to_dict()["errors"] == 0,
                     "server counted errors")

    def sample(self) -> SampleResult:
        result = SampleResult()
        with self.server() as server:
            remote = RemoteRepository(server.address, local=None)
            try:
                written = timed_op(
                    result, "publish",
                    lambda: self.cold_vm.save_translations(remote))
            finally:
                remote.close()
            self.check_published(result, written, self.cold_report)
            vm, load_report, report, client = timed_op(
                result, "boot", lambda: self.warm_boot(server.address))
        self.check_warm(result, vm, load_report, report, client, server)
        self.time_interp(result)
        return result

    def traced_sample(self, recorder: SpanRecorder) -> SampleResult:
        result = SampleResult()
        fingerprints = self.fingerprints()
        with self.server() as server:
            remote = RemoteRepository(server.address, local=None)
            try:
                with op_span(recorder, result, "publish"):
                    with recorder.span("persist.capture"):
                        records = capture_translations(
                            self.cold_vm.runtime.directory,
                            self.cold_vm.state.memory)
                    with recorder.span("persist.remote.push"):
                        written = remote.save(
                            records, *fingerprints,
                            config_name=self.config.name)
            finally:
                remote.close()
            self.check_published(result, written, self.cold_report)
            remote = RemoteRepository(server.address, local=None)
            try:
                with op_span(recorder, result, "boot"):
                    with recorder.span("core.load"):
                        vm = self.load_vm()
                    with recorder.span("persist.remote.pull"):
                        pulled = remote.load(*fingerprints)
                    with recorder.span("persist.install"):
                        load_report = WarmStartLoader(
                            vm.runtime).load_records(pulled)
                    with recorder.span("vmm.run"):
                        report = vm.run()
            finally:
                remote.close()
        self.check_warm(result, vm, load_report, report,
                        remote.remote_stats.to_dict(), server)
        self.time_interp(result, recorder)
        return result


class Herd(Workload):
    """Twelve instances of one seed program through a 2x2 cluster."""

    name = "herd"
    why = ("12 quicksort boots through a 2x2 cluster: 96 small "
           "requests, so per-request overhead, fan-out and "
           "orchestration dominate and payload size does not")
    hot_threshold = FleetScenario.hot_threshold
    interp_repeats = 10
    publish_repeats = 3         # 23 records, 20 ms a publish
    layer_groups = ("front", "translate", "fusible", "vmm", "save", "load",
                    "remote", "cluster", "fleet")

    def setup(self) -> None:
        self.scenario = FleetScenario(seed=self.seed, **HERD)
        self.prepare_image(PROGRAMS[self.scenario.workload])
        #: the VM whose translations the publish operation pushes
        self.solo_vm, self.solo_report = self.cold_boot()
        #: the last herd, for the traced run's counters
        self.last_herd = None
        discarded = SampleResult()
        self.check_herd(discarded, self.run_herd())
        if discarded.problems:
            raise RuntimeError(f"herd set-up: {discarded.problems}")

    def run_herd(self):
        store = self.fresh_store("herd")
        try:
            self.last_herd = FleetEngine(workdir=store).run(self.scenario)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return self.last_herd

    def check_herd(self, result: SampleResult, herd) -> None:
        result.check("boot", herd.arch_ok,
                     "herd: an instance left the baseline")
        # the engine compares instances with its own cold VM run; tie
        # that baseline to the interpreter
        wrong = [key for key in ("exit_code", "output", "regs", "flags")
                 if herd.baseline[key] != self.reference[key]]
        result.check("boot", not wrong,
                     f"herd baseline differs from interpreter in {wrong}")
        warm = sum(1 for instance in herd.instances[1:]
                   if instance.blocks_translated == 0
                   and instance.records_loaded > 0)
        result.check("boot", warm == self.scenario.n - 1,
                     f"{warm} of {self.scenario.n - 1} followers warm")
        cycles = sum(i.total_cycles for i in herd.instances)
        if self.sim_cycles is None:
            self.sim_cycles = cycles
        result.check("boot", cycles == self.sim_cycles,
                     f"simulated cycles moved: {cycles}")
        fallbacks = sum(instance.remote.get("fallbacks", 0)
                        for instance in herd.instances)
        result.check("boot", fallbacks == 0, "herd: a client fell back")

    def check_cluster_publish(self, result: SampleResult, written: int,
                              stats: Dict) -> None:
        self.check_published(result, written, self.solo_report)
        result.check("publish", stats["quorum_misses"] == 0
                     and stats["fallbacks"] == 0,
                     "cluster publish degraded")

    def sample(self) -> SampleResult:
        result = SampleResult()
        herd = timed_op(result, "boot", self.run_herd, self.scenario.n)
        self.check_herd(result, herd)

        def publish_once() -> None:
            with self.cluster(self.scenario.shards,
                              self.scenario.replicas) as spec:
                client = ClusterRepository(spec, local=None)
                try:
                    written = timed_op(
                        result, "publish",
                        lambda: self.solo_vm.save_translations(client))
                finally:
                    client.close()
            self.check_cluster_publish(result, written,
                                       client.remote_stats.to_dict())
        self.repeat_publish(result, publish_once)
        self.time_interp(result)
        return result

    def traced_sample(self, recorder: SpanRecorder) -> SampleResult:
        """The herd itself is one opaque call; what is staged is the
        publish and, beside it, one follower's boot replayed step by
        step against the cluster just published to (``fleet.solo``,
        timed like an operation but not counted as one)."""
        result = SampleResult()
        with op_span(recorder, result, "boot", self.scenario.n):
            with recorder.span("fleet.herd"):
                herd = self.run_herd()
        self.check_herd(result, herd)
        fingerprints = self.fingerprints()
        with self.cluster(self.scenario.shards,
                          self.scenario.replicas) as spec:
            client = ClusterRepository(spec, local=None)
            try:
                with op_span(recorder, result, "publish"):
                    with recorder.span("persist.capture"):
                        records = capture_translations(
                            self.solo_vm.runtime.directory,
                            self.solo_vm.state.memory)
                    with recorder.span("cluster.push"):
                        written = client.save(
                            records, *fingerprints,
                            config_name=self.config.name)
                with op_span(recorder, result, "fleet.solo"):
                    with recorder.span("isa.x86lite.assemble"):
                        image = assemble(self.source)
                    with recorder.span("core.load"):
                        vm = CoDesignedVM(self.config.with_(trace=True))
                        vm.load(image)
                    with recorder.span("cluster.pull"):
                        pulled = client.load(*fingerprints)
                    with recorder.span("persist.install"):
                        WarmStartLoader(vm.runtime).load_records(pulled)
                    with recorder.span("vmm.run"):
                        report = vm.run()
                    with recorder.span("persist.capture"):
                        capture_translations(vm.runtime.directory,
                                             vm.state.memory)
            finally:
                client.close()
        self.check_cluster_publish(result, written,
                                   client.remote_stats.to_dict())
        wrong = mismatches(vm.state, self.reference)
        result.check("boot", not wrong and report.blocks_translated == 0,
                     f"solo follower: differs in {wrong}, translated "
                     f"{report.blocks_translated}")
        self.time_interp(result, recorder)
        return result


WORKLOADS = {cls.name: cls for cls in (HotLoop, WideCold, ServedBoot, Herd)}
