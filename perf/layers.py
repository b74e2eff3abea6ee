"""The traced run: per-layer metrics, measured from outside.

Two parts, both recorded as spans (``spans.py``) and written to
``perf/out/spans-<workload>.json``:

* the *staged loop* alternates a plain sample (as in the untraced run)
  with a staged one (``Workload.traced_sample``), which drives each
  operation layer by layer inside spans;
* the *replays*, under one ``replay`` root span, call single layers on
  the workload's own inputs.  Layers nested inside a staged span
  (verify and fusible encode inside ``persist.install``, decode and
  crack inside BBT) are measured here and subtracted, never added.

A workload replays only the layer groups its operations pass through
(``Workload.layer_groups``); every other per-layer metric reads 0 on
that workload, which is the prediction "a change there moves nothing
here" stated as a number.
"""

from __future__ import annotations

import shutil
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import paths
import stats
from harness import (REFERENCE_KERNEL_S, WARMUP_SAMPLES, SampleLog,
                     declared_units, kept_cu, metric)
from reference import fresh_state
from spans import SpanRecorder
from workloads import SampleResult, Workload, op_span

from repro.cacheserver import decode_frame, encode_frame
from repro.cluster import ClusterRepository
from repro.core import CoDesignedVM
from repro.interp.interpreter import Interpreter
from repro.isa.fusible.encoding import decode_stream, encode_stream
from repro.isa.x86lite import assemble
from repro.isa.x86lite.decoder import decode_at
from repro.persist import (RemoteRepository, TranslationRepository,
                           WarmStartLoader, capture_translations,
                           validate_record)
from repro.translator.cracker import crack
from repro.verify.verifier import verify_translation

#: share of ``--seconds`` the staged loop gets; the replays take a few
#: seconds more, whatever the workload
STAGED_SHARE = 0.6
#: times each replay is repeated (the median is reported)
REPLAY_REPEATS = 3


class Replay:
    """What the replays work on, and the helpers that time them."""

    def __init__(self, workload: Workload, recorder: SpanRecorder,
                 staged: List[Dict]) -> None:
        self.workload = workload
        self.recorder = recorder
        #: rows of the staged loop (their calibrations scale its spans)
        self.staged = staged
        self.config_fp, self.image_fp = workload.fingerprints()
        #: a cold boot of the workload's image, left as it exited
        self.vm, self.report = workload.cold_boot()
        self.stats = self.vm.stats()
        self.memory = self.vm.state.memory
        directory = self.vm.runtime.directory
        self.blocks = list(directory.bbt_cache.translations)
        self.translations = self.blocks + \
            list(directory.sbt_cache.translations)
        self.records = capture_translations(directory, self.memory)
        #: every instruction BBT decoded, in block order
        self.instructions = []
        for block in self.blocks:
            addr = block.entry
            for _ in range(block.instr_count):
                instr = decode_at(self.memory, addr)
                self.instructions.append(instr)
                addr += instr.length

    def cu_once(self, name: str, fn: Callable[[], object]
                ) -> Tuple[float, object]:
        """One replay of ``fn`` as a calibrated operation inside a span
        called ``name``: its cu, and its result."""
        result = SampleResult()
        with op_span(self.recorder, result, name):
            value = fn()
        return result.timings[name]["cu"], value

    def cu(self, name: str, fn: Callable[..., object],
           prepare: Optional[Callable[[], object]] = None
           ) -> Tuple[float, object]:
        """Median of ``cu_once`` over the repeats.  ``prepare`` runs
        untimed before each repeat and its result is handed to ``fn``."""
        ratios = []
        for _ in range(REPLAY_REPEATS):
            call = fn if prepare is None else partial(fn, prepare())
            ratio, result = self.cu_once(name, call)
            ratios.append(ratio)
        return stats.median(ratios), result

    def seconds(self, name: str, fn: Callable[..., object],
                prepare: Optional[Callable[[], object]] = None
                ) -> Tuple[float, object]:
        """``cu`` in normalised seconds (of a host whose calibration
        kernel takes ``REFERENCE_KERNEL_S``, as ``setup_s`` is): what
        the per-instruction and per-record figures are made of, so that
        they do not move with the host's mood either."""
        ratio, result = self.cu(name, fn, prepare)
        return ratio * REFERENCE_KERNEL_S, result


# -- replay groups ------------------------------------------------------------

def count_instructions(source: str) -> int:
    """Instruction lines of an assembly text (not labels, directives,
    comments or blanks)."""
    count = 0
    for line in source.splitlines():
        text = line.split(";")[0].strip()
        if text and not text.endswith(":") and not text.startswith("."):
            count += 1
    return count


def group_front(replay: Replay) -> Dict[str, float]:
    workload = replay.workload
    assemble_s, _ = replay.seconds(
        "isa.x86lite.assemble", lambda: assemble(workload.source))

    def decode_walk():
        for instr in replay.instructions:
            decode_at(replay.memory, instr.addr)
    decode_s, _ = replay.seconds("isa.x86lite.decode", decode_walk)

    interp_s, count = replay.seconds(
        "interp.run", lambda state: Interpreter(state).run(),
        prepare=lambda: fresh_state(workload.image))
    return {
        "isa.x86lite.assemble_us_per_instr":
            1e6 * assemble_s / count_instructions(workload.source),
        "isa.x86lite.decode_us_per_instr":
            1e6 * decode_s / len(replay.instructions),
        "interp.instr_per_s": count / interp_s,
    }


def group_translate(replay: Replay) -> Dict[str, float]:
    instructions = replay.instructions
    crack_s, cracked = replay.seconds(
        "translator.crack", lambda: [crack(i) for i in instructions])
    uops = sum(len(result.uops) for result in cracked)

    def translate_all(vm):
        for block in replay.blocks:
            vm.runtime.bbt.translate(block.entry)
    bbt_s, _ = replay.seconds("translator.bbt", translate_all,
                              prepare=replay.workload.load_vm)
    report = replay.report
    executed = report.uops_executed
    return {
        "translator.crack_us_per_instr": 1e6 * crack_s / len(instructions),
        "translator.bbt_us_per_instr": 1e6 * bbt_s / len(instructions),
        "translator.uops_per_instr": uops / len(instructions),
        "translator.bbt_blocks": report.blocks_translated,
        "translator.sbt_superblocks": report.superblocks_translated,
        "translator.pairs_fused": report.pairs_fused,
        "translator.fused_uop_share":
            2.0 * report.fused_pairs_executed / executed if executed else 0.0,
    }


def group_fusible(replay: Replay) -> Dict[str, float]:
    streams = [translation.uops for translation in replay.translations]
    uops = sum(len(stream) for stream in streams)
    encode_s, encoded = replay.seconds(
        "isa.fusible.encode", lambda: [encode_stream(s) for s in streams])
    decode_s, _ = replay.seconds(
        "isa.fusible.decode", lambda: [decode_stream(d) for d in encoded])
    return {"isa.fusible.encode_us_per_uop": 1e6 * encode_s / uops,
            "isa.fusible.decode_us_per_uop": 1e6 * decode_s / uops}


def group_vmm(replay: Replay) -> Dict[str, float]:
    """Steady state: the retained VM restarted warm (translations,
    chains and profile kept) and run again."""
    vm = replay.vm
    cold = replay.stats
    instructions = replay.workload.reference["instructions"]
    uops_before = cold["uops_executed"]

    def steady():
        vm.restart(warm=True)
        vm.run()
    steady_cu, _ = replay.cu("vmm.steady", steady)
    uops = (vm.stats()["uops_executed"] - uops_before) / REPLAY_REPEATS
    return {
        "vmm.steady_cu": steady_cu,
        "isa.fusible.uops_per_s":
            uops / (steady_cu * REFERENCE_KERNEL_S),
        "vmm.dispatches": cold["dispatches"],
        "vmm.vm_exits": cold["vm_exits"],
        "vmm.chains_made": cold["chains_made"],
        "vmm.exits_per_kinstr": 1000.0 * cold["vm_exits"] / instructions,
    }


def group_save(replay: Replay) -> Dict[str, float]:
    workload = replay.workload
    directory = replay.vm.runtime.directory
    capture_s, records = replay.seconds(
        "persist.capture",
        lambda: capture_translations(directory, replay.memory))
    validate_s, _ = replay.seconds(
        "persist.validate",
        lambda: [validate_record(record) for record in records])
    store = workload.fresh_store("replay-local")
    try:
        save_cu, _ = replay.cu(
            "persist.repo_save",
            lambda repo: repo.save(records, replay.config_fp,
                                   replay.image_fp),
            prepare=lambda: TranslationRepository(
                workload.fresh_store("replay-local")))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return {"persist.capture_us_per_record": 1e6 * capture_s / len(records),
            "persist.validate_us_per_record":
                1e6 * validate_s / len(records),
            "persist.repo_save_cu": save_cu}


def group_load(replay: Replay) -> Dict[str, float]:
    workload = replay.workload
    verify_s, reports = replay.seconds(
        "verify", lambda: [verify_translation(t)
                           for t in replay.translations])
    store = workload.fresh_store("replay-local")
    try:
        repo = TranslationRepository(store)
        repo.save(replay.records, replay.config_fp, replay.image_fp)
        load_cu, records = replay.cu(
            "persist.repo_load",
            lambda: repo.load(replay.config_fp, replay.image_fp))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    install_cu, report = replay.cu(
        "persist.install",
        lambda vm: WarmStartLoader(vm.runtime).load_records(records),
        prepare=workload.load_vm)
    return {
        "verify.us_per_translation":
            1e6 * verify_s / len(replay.translations),
        "verify.violations": sum(len(r.violations) for r in reports),
        "persist.repo_load_cu": load_cu,
        "persist.install_cu": install_cu,
        "persist.install_loaded": report.loaded,
        "persist.install_dropped": report.dropped,
    }


def group_remote(replay: Replay) -> Dict[str, float]:
    """One client against one server.  Each push goes into an empty
    store (a fresh server per repeat); the pulls, the in-process
    dispatch and the frame codec work on what the last push left."""
    workload = replay.workload
    pair = (replay.config_fp, replay.image_fp)
    request = {"op": "pull", "config_fp": pair[0], "image_fp": pair[1]}
    push_ratios = []
    for repeat in range(REPLAY_REPEATS):
        with workload.server() as server:
            client = RemoteRepository(server.address, local=None)
            try:
                ratio, _ = replay.cu_once(
                    "persist.remote.push",
                    lambda: client.save(replay.records, *pair))
                push_ratios.append(ratio)
                if repeat < REPLAY_REPEATS - 1:
                    continue
                pull_cu, _ = replay.cu("persist.remote.pull",
                                       lambda: client.load(*pair))
                dispatch_cu, response = replay.cu(
                    "cacheserver.dispatch_pull",
                    lambda: server.dispatch(request))
                client_stats = client.remote_stats.to_dict()
            finally:
                client.close()
            served = server.stats.to_dict()
    encode_s, frame = replay.seconds(
        "cacheserver.frame_encode", lambda: encode_frame(response))
    decode_s, _ = replay.seconds(
        "cacheserver.frame_decode", lambda: decode_frame(frame))
    megabytes = len(frame) / 1e6
    return {
        "persist.remote.pull_cu": pull_cu,
        "persist.remote.push_cu": stats.median(push_ratios),
        "persist.remote.wire_overhead_cu": pull_cu - dispatch_cu,
        "persist.remote.retries": client_stats["retries"],
        "persist.remote.fallbacks": client_stats["fallbacks"],
        "persist.remote.sheds": client_stats["sheds"],
        "cacheserver.frame_encode_mb_per_s": megabytes / encode_s,
        "cacheserver.frame_decode_mb_per_s": megabytes / decode_s,
        "cacheserver.frame_bytes": len(frame),
        "cacheserver.dispatch_pull_cu": dispatch_cu,
        "cacheserver.pull_service_ms": served["latency"]["pull"]["mean"],
        "cacheserver.push_service_ms": served["latency"]["push"]["mean"],
        "cacheserver.errors": served["errors"],
        "cacheserver.requests_shed": served["requests_shed"],
        "cacheserver.objects_deduped": served["objects_deduped"],
    }


def group_cluster(replay: Replay) -> Dict[str, float]:
    """The cluster client against a fresh 2x2 grid, as ``group_remote``
    does with one server."""
    workload = replay.workload
    scenario = workload.scenario
    pair = (replay.config_fp, replay.image_fp)
    push_ratios = []
    for repeat in range(REPLAY_REPEATS):
        with workload.cluster(scenario.shards, scenario.replicas) as spec:
            client = ClusterRepository(spec, local=None)
            try:
                ratio, _ = replay.cu_once(
                    "cluster.push",
                    lambda: client.save(replay.records, *pair))
                push_ratios.append(ratio)
                if repeat == REPLAY_REPEATS - 1:
                    pull_cu, _ = replay.cu("cluster.pull",
                                           lambda: client.load(*pair))
            finally:
                client.close()
    return {"cluster.pull_cu": pull_cu,
            "cluster.push_cu": stats.median(push_ratios)}


def group_fleet(replay: Replay) -> Dict[str, float]:
    """Counters of the last herd, and how much of a herd is not the
    sum of its boots.  The herd's own requests replace the single
    client's counters of ``group_remote``."""
    workload = replay.workload
    herd = workload.last_herd
    recorder = replay.recorder
    clients = [instance.remote for instance in herd.instances]

    def total(key: str) -> int:
        return sum(client.get(key, 0) for client in clients)
    herd_s = stats.median(recorder.durations("fleet.herd"))
    solo_cu = stats.median([row["fleet.solo"]["cu"]
                            for row in replay.staged])
    # a herd's boot_cu is already per instance
    per_boot_cu = stats.median([row["boot"]["cu"] for row in replay.staged])
    return {
        "persist.remote.retries": total("retries"),
        "persist.remote.fallbacks": total("fallbacks"),
        "persist.remote.sheds": total("sheds"),
        "cacheserver.errors": herd.server["errors"],
        "cacheserver.requests_shed": herd.server["requests_shed"],
        "cacheserver.objects_deduped": herd.server["objects_deduped"],
        "cluster.hedges": total("hedges"),
        "cluster.quorum_misses": total("quorum_misses"),
        "cluster.stale_replicas": total("stale_replicas"),
        "fleet.herd_wall_s": herd_s,
        "fleet.solo_boot_cu": solo_cu,
        "fleet.overhead_share": 1.0 - solo_cu / per_boot_cu,
        "fleet.instances_warm": sum(
            1 for instance in herd.instances
            if instance.blocks_translated == 0
            and instance.records_loaded > 0),
        "fleet.blocks_translated_total": sum(
            instance.blocks_translated for instance in herd.instances),
    }


def trace_overhead(replay: Replay) -> float:
    """Boot time with the program's own event tracer on, over boot
    time with it off (fleet instances boot with it on)."""
    workload = replay.workload
    traced_config = workload.config.with_(trace=True)

    def boot(config) -> float:
        def run():
            vm = CoDesignedVM(config)
            vm.load(workload.image)
            vm.run()
        return stats.timed(run)[0]
    pairs = [(boot(traced_config), boot(workload.config))
             for _ in range(REPLAY_REPEATS)]
    return stats.median([on / off for on, off in pairs])


GROUPS = {"front": group_front, "translate": group_translate,
          "fusible": group_fusible, "vmm": group_vmm, "save": group_save,
          "load": group_load, "remote": group_remote,
          "cluster": group_cluster, "fleet": group_fleet}


# -- the traced run -----------------------------------------------------------

def staged_loop(workload: Workload, recorder: SpanRecorder,
                seconds: float) -> Dict:
    """Plain and staged samples in turn."""
    log = SampleLog()
    plain: List[Dict] = []
    staged: List[Dict] = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not (plain and staged)) \
            and not log.hopeless:
        recorder.begin_sample(len(staged))
        for rows, sample in (
                (plain, workload.sample),
                (staged, lambda: workload.traced_sample(recorder))):
            row = log.take(sample)
            if row is not None:
                rows.append(row)
    outcome = log.outcome(plain)
    outcome["staged_rows"] = staged
    return outcome


def span_cu(recorder: SpanRecorder, rows: List[Dict], name: str,
            parent: str) -> float:
    """Median, in cu, of the ``name`` spans directly under a ``parent``
    span, each over the calibration of the operation it is part of;
    0 when there is no such span."""
    ratios = []
    for span in recorder.spans:
        if span["name"] != name or span["parent"] is None \
                or recorder.spans[span["parent"]]["name"] != parent:
            continue
        root = recorder.root_of(span)
        if root["sample"] is not None and root["sample"] < len(rows):
            timing = rows[root["sample"]].get(root["name"])
            if timing is not None:
                ratios.append((span["end"] - span["start"])
                              / timing["calib"])
    return stats.median(ratios) if ratios else 0.0


def run_traced(workload: Workload, seconds: float,
               fsync_calls: Callable[[], int]) -> Dict:
    recorder = SpanRecorder(counter=fsync_calls)
    outcome = staged_loop(workload, recorder, seconds * STAGED_SHARE)
    plain, staged = outcome["rows"], outcome["staged_rows"]
    units = declared_units("per_layer")
    metrics = dict.fromkeys(units, 0.0)
    if plain and staged:
        recorder.begin_sample(None)
        with recorder.span("replay"):
            replay = Replay(workload, recorder, staged)
            for group in workload.layer_groups:
                metrics.update(GROUPS[group](replay))
            metrics["obs.trace_overhead"] = trace_overhead(replay)
        # the VM that runs under the staged spans: the booting one, or
        # on herd the follower replayed beside the publish
        boot_parent = "fleet.solo" if "fleet" in workload.layer_groups \
            else "boot"
        run_cu = span_cu(recorder, staged, "vmm.run", boot_parent)
        bbt_cu = 0.0
        if boot_parent == "boot" and "translate" in workload.layer_groups:
            # on a cold boot BBT runs inside vmm.run: replayed on the
            # same blocks and subtracted
            bbt_cu = (metrics["translator.bbt_us_per_instr"] * 1e-6
                      * len(replay.instructions)) / REFERENCE_KERNEL_S
        plain_cu, staged_cu = kept_cu(plain, "boot"), kept_cu(staged, "boot")
        metrics.update({
            "core.load_us": 1e6 * REFERENCE_KERNEL_S * span_cu(
                recorder, staged, "core.load", boot_parent),
            "vmm.cold_self_cu": run_cu - bbt_cu,
            "persist.fsyncs_per_publish": stats.median(
                [span["fsyncs"] for span in recorder.spans
                 if span["name"] == "publish"]),
            # the gated publish_cu counts user-mode time only; this is
            # the same operation on the wall clock, kernel included
            "persist.publish_wall_cu": stats.median(
                kept_cu(plain, "publish")),
            "obs.sim_cycles": workload.sim_cycles,
            "bench.calib_ms": 1e3 * stats.median(
                [row["boot"]["calib"] for row in plain]),
            "bench.samples": len(plain),
            "bench.boot_s": stats.median(
                [row["boot"]["s"] for row in
                 stats.drop_warmup(plain, WARMUP_SAMPLES)]),
            "bench.trace_overhead":
                stats.median(staged_cu) / stats.median(plain_cu),
        })
        outcome["metrics"] = {name: metric(value, units[name])
                              for name, value in metrics.items()}
    paths.OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.write(paths.OUT_DIR / f"spans-{workload.name}.json")
    outcome["self_times_s"] = {
        "samples": recorder.self_times(),
        "replay": recorder.self_times(replay=True)}
    return outcome
