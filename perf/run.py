"""Host-clock benchmark of the co-designed VM: one command.

    python perf/run.py [--seed N] [--seconds S] [--trace] [--out FILE]

runs the four workloads, each in its own subprocess under a hard
timeout, prints every metric by name with its unit, writes one JSON
document under ``perf/out/`` and exits 1 if any output was wrong.

    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (see ``BENCHMARK.json``).  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import paths

#: seconds a workload subprocess may take beyond its measuring time
#: before the suite kills it and counts its operations as failed
SUBPROCESS_GRACE = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the JSON document here")
    return parser.parse_args(argv)


def print_metrics(document: dict) -> None:
    workload = document["workload"]
    for name, metric in document["metrics"].items():
        print(f"{workload:<12} {name:<36} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    tail = document.get("boot_cu_tail")
    if tail and not document["traced"]:
        shown = f"p{tail['pct']} {tail['value']:.6g} cu" if tail["pct"] \
            else "no tail percentile has 10 samples beyond it"
        print(f"{workload:<12} boot_cu over {tail['samples']} samples: "
              f"{shown}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the contract line goes last."""
    paths.add_src()
    import harness
    document = harness.run_workload(args.workload, args.seed, args.seconds,
                                    traced=bool(args.trace))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    print_metrics(document)
    for problem in document["problems"][:10]:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a subprocess; a timeout or a crash becomes a
    document with failed operations, never a hang."""
    out = paths.OUT_DIR / f"{workload}-trace{trace}-seed{seed}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
    started = time.perf_counter()
    problem = None
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    try:
        if child.wait(timeout=seconds + SUBPROCESS_GRACE) != 0:
            problem = f"exit code {child.returncode}"
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        problem = f"timed out after {seconds + SUBPROCESS_GRACE:.0f} s"
        # a killed child cannot remove its own stores
        shutil.rmtree(paths.store_root(workload, child.pid),
                      ignore_errors=True)
    if problem is None and out.is_file():
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        out.unlink()
        return document
    return {"workload": workload, "seed": seed, "traced": bool(trace),
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "problems": [problem or "no result document"],
            "wall_s": time.perf_counter() - started}


def run_suite(args: argparse.Namespace) -> int:
    import harness
    paths.OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in harness.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            document = run_child(workload, args.seed, args.seconds, trace)
            print_metrics(document)
            for problem in document["problems"][:10]:
                print(f"{workload}: FAILED {problem}")
            runs.append(document)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    suite = {"schema": "perf/v1", "seed": args.seed,
             "seconds": args.seconds, "store_fs": harness.store_fs(),
             "attempted": attempted, "failed": failed,
             "fail_share": failed / attempted, "runs": runs}
    out = Path(args.out) if args.out else \
        paths.OUT_DIR / f"run-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
    print(f"fail_share {failed}/{attempted}; document written to {out}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    paths.add_src()
    if args.seconds is None:
        args.seconds = float(paths.benchmark_json()["run_seconds"])
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
