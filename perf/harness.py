"""Runs one workload for a fixed time and reduces its samples.

The untraced run gives the end-to-end metrics.  The traced run
(``layers.py``) drives the same operations stage by stage inside spans
and replays single layers; it gives the per-layer metrics.
"""

from __future__ import annotations

import os
import resource
import time
import traceback
from typing import Callable, Dict, List, Optional

import paths
import stats
from workloads import (OPERATIONS, WORKLOADS, SampleResult, Workload,
                       timed_op)

#: set-up is repeated and its median reported, so that one slow
#: import or page-cache miss does not read as a set-up regression
SETUP_REPEATS = 5
#: samples discarded at the start of the measured loop
WARMUP_SAMPLES = 2
#: ``setup_s`` is in seconds of a host on which the calibration kernel
#: takes this long (the reference box when it is quiet); raw seconds
#: are kept beside it in the result document
REFERENCE_KERNEL_S = 0.020



def declared_units(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares.  A run reports exactly those: a metric
    the code computes under another name is a ``KeyError``."""
    return {entry["name"]: entry["unit"]
            for entry in paths.benchmark_json()[section]}


class FsyncStub:
    """Replaces ``os.fsync`` by a counter while the benchmark runs.

    How long the device takes to flush is a property of the host's disk
    and of its other tenants: on the reference box it was most of a
    publish and drifted by a factor of 1.7 over minutes, which no
    calibration kernel follows.  The program still makes every call;
    the calls are counted (``persist.fsyncs_per_publish``), so a change
    that adds or drops flushes shows as a count, and what is left in
    ``publish_cu`` is the program's own work.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._real = os.fsync

    def _count(self, fd) -> None:
        self.calls += 1

    def __enter__(self) -> "FsyncStub":
        os.fsync = self._count
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def store_fs() -> str:
    """File system type under ``perf/out``: what file creation costs
    depends on it."""
    paths.OUT_DIR.mkdir(parents=True, exist_ok=True)
    target = os.path.realpath(paths.OUT_DIR)
    found = ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(found[0]):
                    found = (mount, fstype)
    except OSError:
        pass
    return found[1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def new_workload(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed, paths.store_root(name, os.getpid()))


def timed_setup(workload: Workload) -> List[Dict]:
    """Set-up, repeated, each between two runs of the calibration
    kernel."""
    stats.calibrate()       # the first run in a process is a slow one
    rows = []
    for _ in range(SETUP_REPEATS):
        result = SampleResult()
        timed_op(result, "setup", workload.setup)
        rows.append(result.timings["setup"])
    return rows


class SampleLog:
    """Takes samples and keeps the tally of operations and failures."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def take(self, sample: Callable[[], SampleResult]) -> Optional[Dict]:
        """One sample; its row ``{operation: {s, cu, calib}}``, or
        ``None`` if it raised."""
        self.attempted += len(OPERATIONS)
        try:
            result = sample()
        except Exception:   # noqa: BLE001 - a sample that raises is a
            # failed operation of the program under test, not of the run
            self.failed += len(OPERATIONS)
            self.problems.append(traceback.format_exc(limit=4))
            return None
        self.failed += result.failed_operations
        self.problems += [f"{operation}: {problem}"
                          for operation, problem in result.problems]
        return result.timings

    @property
    def hopeless(self) -> bool:
        """Too many failures to be worth the rest of the run."""
        return self.failed > 10 * len(OPERATIONS)

    def outcome(self, rows: List[Dict]) -> Dict:
        return {"rows": rows, "problems": self.problems,
                "attempted": self.attempted, "failed": self.failed}


def measure(workload: Workload, seconds: float) -> Dict:
    """The closed loop: sample after sample until ``seconds`` have
    passed (at least one)."""
    log = SampleLog()
    rows: List[Dict] = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not rows) \
            and not log.hopeless:
        row = log.take(workload.sample)
        if row is not None:
            rows.append(row)
    return log.outcome(rows)


def kept_cu(rows: List[Dict], operation: str) -> List[float]:
    """An operation's cu per sample, warm-up samples dropped."""
    return [row[operation]["cu"]
            for row in stats.drop_warmup(rows, WARMUP_SAMPLES)]


def user_cu(rows: List[Dict], operation: str) -> float:
    """An operation's user-mode CPU time over the whole run, in cu: the
    user seconds of the kept samples over the user seconds the
    calibration kernel took beside them.  A quotient of sums, not a
    median of per-sample quotients: the kernel splits a process's CPU
    time into user and system by sampling at its tick (4 ms here), so
    the split of one 10 ms operation is a coin toss and only the totals
    mean something."""
    kept = [row[operation] for row in stats.drop_warmup(rows, WARMUP_SAMPLES)]
    return sum(timing["user_s"] for timing in kept) \
        / sum(timing["user_calib"] for timing in kept)


def end_to_end(setups: List[Dict], rows: List[Dict]) -> Dict:
    boot, interp = kept_cu(rows, "boot"), kept_cu(rows, "interp")
    values = {
        "setup_s": REFERENCE_KERNEL_S * stats.median(
            [row["cu"] for row in setups]),
        "boot_cu": stats.median(boot),
        "publish_cu": user_cu(rows, "publish"),
        "vm_vs_interp": stats.median(
            [i / b for i, b in zip(interp, boot)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = declared_units("end_to_end")
    return {name: metric(value, units[name])
            for name, value in values.items()}


def boot_tail(rows: List[Dict]) -> Dict:
    """The highest percentile of ``boot_cu`` with at least ten samples
    beyond it (``pct`` 0: too few samples for any), beside the sample
    count; reported with the median, not gated."""
    values = kept_cu(rows, "boot")
    pct, value = stats.tail(values) or (0, 0.0)
    return {"pct": pct, "value": value, "samples": len(values)}


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Dict:
    """Everything one ``--workload`` invocation does; returns the
    result document (contract keys plus raw samples)."""
    started = time.perf_counter()
    workload = new_workload(name, seed)
    try:
        with FsyncStub() as fsync:
            setups = timed_setup(workload)
            if traced:
                import layers
                outcome = layers.run_traced(workload, seconds,
                                            lambda: fsync.calls)
            else:
                outcome = measure(workload, seconds)
                if outcome["rows"]:
                    outcome["metrics"] = end_to_end(setups,
                                                    outcome["rows"])
    finally:
        workload.close()
    failed = outcome["failed"]
    return {
        "workload": name, "seed": seed, "traced": traced,
        "seconds": seconds, "store_fs": store_fs(),
        "correct": failed == 0 and bool(outcome.get("metrics")),
        "attempted": max(1, outcome["attempted"]), "failed": failed,
        "metrics": outcome.get("metrics", {}),
        "problems": outcome["problems"],
        "setup_samples": setups,
        "boot_cu_tail": boot_tail(outcome["rows"]) if outcome["rows"]
        else None,
        "samples": outcome["rows"],
        "staged_samples": outcome.get("staged_rows", []),
        "self_times_s": outcome.get("self_times_s", {}),
        "wall_s": time.perf_counter() - started,
    }
