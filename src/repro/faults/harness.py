"""Chaos harness: prove every fault is survivable.

The correctness bar is the paper's own premise — staged translation is
an *optimization* over an always-correct emulation path, so no failure
inside the translation stack may change architected results.  The
harness makes that executable:

1. run a workload fault-free (cold run + repository snapshot), recording
   its architected outcome — registers, flags, output, exit code;
2. mangle a copy of the repository with the disk faults, arm the
   runtime faults, and run the same workload warm-started from the
   damaged repository;
3. the run must complete (no exception escapes) with an architected
   outcome identical to step 1, all recovery recorded in the stats.

The ``chaos`` drill of ``tools/drills.py`` sweeps the full (workload x
fault x seed) matrix through :func:`run_matrix`; the hypothesis
chaos test samples it.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.config import vm_soft
from repro.core.vm import CoDesignedVM
from repro.faults.classes import SURFACES, make_fault
from repro.faults.injector import FaultInjector
from repro.faults.plane import injecting
from repro.isa.x86lite.assembler import assemble
from repro.persist import TranslationRepository

DEFAULT_HOT_THRESHOLD = 50
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


@dataclass
class ArchOutcome:
    """The architected result of one run — what faults must not change."""

    exit_code: Optional[int]
    output: List[object]
    regs: List[int]
    flags: List[bool]

    @classmethod
    def of(cls, vm: CoDesignedVM) -> "ArchOutcome":
        state = vm.state
        return cls(exit_code=state.exit_code,
                   output=list(state.output),
                   regs=list(state.regs),
                   flags=[state.cf, state.zf, state.sf, state.of])

    def diff(self, other: "ArchOutcome") -> List[str]:
        problems = []
        if self.exit_code != other.exit_code:
            problems.append(f"exit code {other.exit_code!r} != "
                            f"{self.exit_code!r}")
        if self.output != other.output:
            problems.append(f"output {other.output!r} != {self.output!r}")
        if self.regs != other.regs:
            problems.append(f"registers {other.regs!r} != {self.regs!r}")
        if self.flags != other.flags:
            problems.append(f"flags {other.flags!r} != {self.flags!r}")
        return problems


@dataclass
class Baseline:
    """Fault-free reference: outcome plus a pristine repository."""

    name: str
    source: str
    hot_threshold: int
    max_instructions: int
    outcome: ArchOutcome
    repo_dir: str
    records_saved: int

    def fresh_vm(self, config=None) -> CoDesignedVM:
        """A new VM with this baseline's program loaded, nothing run."""
        vm = CoDesignedVM(config or vm_soft(),
                          hot_threshold=self.hot_threshold)
        vm.load(assemble(self.source))
        return vm


@dataclass
class ChaosOutcome:
    """One faulted run compared against its baseline."""

    workload: str
    faults: List[str]
    seed: int
    ok: bool
    #: the run's transport, one of :data:`~repro.faults.classes.SURFACES`
    #: (see :func:`run_faulted`)
    mode: str = "warm"
    problems: List[str] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    disk_corruptions: int = 0
    stats: Dict = field(default_factory=dict)
    #: flight-recorder dump (repro.obs.tracer) captured when the run
    #: raised or diverged — the replayable forensic trace; None when
    #: the run survived cleanly
    flight_recording: Optional[Dict] = None

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        fired = ", ".join(f"{name} x{count}"
                          for name, count in sorted(self.injected.items())
                          if count) or "none fired"
        line = (f"{status}  {self.workload:14s} seed={self.seed:<4d} "
                f"{self.mode} [{'+'.join(self.faults)}] ({fired})")
        if self.problems:
            line += "\n      " + "\n      ".join(self.problems)
        return line


def prepare_baseline(name: str, source: str, workdir: str,
                     hot_threshold: int = DEFAULT_HOT_THRESHOLD,
                     max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                     ) -> Baseline:
    """Fault-free cold run; snapshot its translations for warm starts."""
    image = assemble(source)
    vm = CoDesignedVM(vm_soft(), hot_threshold=hot_threshold)
    vm.load(image)
    vm.run(max_instructions=max_instructions)
    repo_dir = str(Path(workdir) / f"baseline-{name}")
    saved = vm.save_translations(repo_dir)
    return Baseline(name=name, source=source,
                    hot_threshold=hot_threshold,
                    max_instructions=max_instructions,
                    outcome=ArchOutcome.of(vm),
                    repo_dir=repo_dir, records_saved=saved)


def manifest_pairs(repo_dir) -> List[tuple]:
    """The (config_fp, image_fp) pairs a repository directory holds
    (manifest files are named ``<config_fp>__<image_fp>.json``)."""
    pairs = []
    manifests = Path(repo_dir) / "manifests"
    if manifests.is_dir():
        for path in sorted(manifests.glob("*.json")):
            config_fp, sep, image_fp = path.stem.partition("__")
            if sep and config_fp and image_fp:
                pairs.append((config_fp, image_fp))
    return pairs


def run_faulted(baseline: Baseline, faults: Sequence[str], seed: int,
                workdir: Optional[str] = None, mode: str = "warm",
                **fault_overrides) -> ChaosOutcome:
    """One chaos run under an armed injector.

    ``mode="warm"`` boots from a mangled copy of the baseline repository
    (exercising the repository/loader fault surface); ``"cold"`` runs
    cold, so the BBT/SBT/hotspot/dispatch fault sites see live
    translation work.  ``"remote"`` and ``"cluster"`` prime a live
    :class:`~repro.cluster.manager.LocalCluster` from the mangled copy,
    rot each replica store independently, and warm-start through the
    fault-tolerant :class:`~repro.persist.remote.RemoteRepository`
    client with the same copy as its local fallback, so every
    degradation ends at state the fault-free run could have produced.
    The two differ in topology only: remote is 1x1 — one server, the
    socket path the network faults strike — and cluster the default
    sharded, replicated grid, the surface for the cluster faults
    (shard-down, replica-partition, stale-replica, ...).  In every mode
    the architected outcome must match the fault-free baseline exactly.
    """
    if mode not in SURFACES:
        raise ValueError(f"unknown chaos mode {mode!r}; one of {SURFACES}")
    injector = FaultInjector(seed, faults, **fault_overrides)
    cleanup = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    disk_corruptions = 0
    warm = mode != "cold"
    wire = mode in ("remote", "cluster")
    if warm:
        repo_copy = Path(workdir) / f"faulted-{baseline.name}-{seed}"
        if repo_copy.exists():
            shutil.rmtree(repo_copy)
        shutil.copytree(baseline.repo_dir, repo_copy)
        disk_corruptions = injector.mangle_repository(repo_copy)

    outcome = ChaosOutcome(workload=baseline.name,
                           faults=list(faults), seed=seed, ok=False,
                           mode=mode, disk_corruptions=disk_corruptions)
    # chaos runs fly instrumented: the flight recorder turns any escape
    # or divergence into a replayable forensic trace (docs/observability)
    vm = baseline.fresh_vm(
        vm_soft().with_(integrity_check_interval=1, trace=True))
    grid = None
    try:
        if wire:
            # a live shards x replicas grid on loopback (1x1 for the
            # remote mode: one server, so the network faults strike a
            # single socket path), primed (fault-free) from the mangled
            # copy, then each replica store rotted independently — the
            # same copy backs the client's local fallback, so every
            # rung of the degradation ladder lands on loadable records
            from repro.cluster.manager import (DEFAULT_REPLICAS,
                                               DEFAULT_SHARDS,
                                               LocalCluster)
            from repro.persist.remote import RemoteRepository
            shards, replicas = (DEFAULT_SHARDS, DEFAULT_REPLICAS) \
                if mode == "cluster" else (1, 1)
            grid = LocalCluster(
                Path(workdir) / f"cluster-{baseline.name}-{seed}",
                shards=shards, replicas=replicas)
            spec = grid.start()
            source_repo = TranslationRepository(repo_copy)
            primer = RemoteRepository(spec, retries=1,
                                      sleep=lambda _s: None)
            for config_fp, image_fp in manifest_pairs(repo_copy):
                primer.save(source_repo.load(config_fp, image_fp),
                            config_fp, image_fp)
            primer.close()
            for group, index in sorted(grid.servers):
                disk_corruptions += injector.mangle_repository(
                    grid.repo_dir(group, index))
            outcome.disk_corruptions = disk_corruptions
            repository = RemoteRepository(
                spec, local=repo_copy, timeout=2.0, retries=2,
                breaker_cooldown=0.0, sleep=lambda _s: None)
        elif warm:
            repository = TranslationRepository(repo_copy)
        with injecting(injector):
            if warm:
                vm.warm_start(repository)
            vm.run(max_instructions=baseline.max_instructions)
    except Exception as error:   # noqa: BLE001 - the whole point
        outcome.problems.append(
            f"run did not complete: {type(error).__name__}: {error} "
            f"({injector.summary()})")
        outcome.flight_recording = getattr(error, "flight_recording",
                                           None)
        if outcome.flight_recording is None and vm.tracer is not None:
            outcome.flight_recording = vm.tracer.flight_dump(
                f"chaos-exception:{type(error).__name__}",
                workload=baseline.name, seed=seed,
                faults=list(faults))
        return outcome
    finally:
        if grid is not None:
            grid.stop()
        outcome.injected = dict(injector.injected)
        outcome.stats = vm.stats()
        if wire:
            outcome.stats["remote"] = repository.remote_stats.to_dict()
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    outcome.problems = baseline.outcome.diff(ArchOutcome.of(vm))
    outcome.ok = not outcome.problems
    if not outcome.ok and vm.tracer is not None:
        outcome.flight_recording = vm.tracer.flight_dump(
            "chaos-divergence", workload=baseline.name, seed=seed,
            faults=list(faults), problems=outcome.problems)
    return outcome


def modes_for(faults: Sequence[str]) -> List[str]:
    """The chaos runs that give every fault of a set its surface.

    One warm start through the widest transport a fault needs — a
    cluster reaches every remote fault too, and any warm start every
    repository/loader fault — and one cold run when a translator,
    hotspot or dispatch fault is in the set, because a fully warm boot
    never invokes the translators.
    """
    surfaces = {make_fault(name).surface for name in faults}
    # the widest warm transport named, if any
    modes = [mode for mode in ("cluster", "remote", "warm")
             if mode in surfaces][:1]
    if "cold" in surfaces:
        modes.append("cold")
    return modes or ["warm"]


def run_matrix(programs: Dict[str, str],
               fault_sets: Sequence[Sequence[str]], seeds: Sequence[int],
               workdir: str, mode: str = "surface",
               hot_threshold: int = DEFAULT_HOT_THRESHOLD,
               max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               progress=None, **fault_overrides) -> List[ChaosOutcome]:
    """The chaos sweep: every workload x fault set x seed x mode, in
    the order given.

    ``mode`` picks the transports of each run: ``"surface"`` is every
    mode the fault set has surface in (:func:`modes_for`), ``"local"``
    the same runs with the warm start against the local repository,
    ``"remote"`` and ``"cluster"`` one warm boot through a live 1x1 /
    sharded grid.
    """
    if mode not in ("surface", "local", "remote", "cluster"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    outcomes: List[ChaosOutcome] = []
    for name, source in programs.items():
        baseline = prepare_baseline(
            name, source, workdir, hot_threshold=hot_threshold,
            max_instructions=max_instructions)
        for fault_set in fault_sets:
            runs = [mode] if mode in ("remote", "cluster") \
                else modes_for(fault_set)
            if mode == "local":
                runs = ["cold" if run == "cold" else "warm"
                        for run in runs]
            for seed in seeds:
                for run in runs:
                    outcome = run_faulted(
                        baseline, fault_set, seed, workdir=workdir,
                        mode=run, **fault_overrides)
                    outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
    return outcomes
