"""Compare two sets of benchmark runs: ``python perf/compare.py A B``.

``A`` and ``B`` are each a JSON document written by ``run.py`` or a
directory of them (a set of runs, e.g. one per seed); A is the parent,
B the change.  One row per (workload, end-to-end metric) with both
medians, both quartile pairs and the metric's bound from
``BENCHMARK.json``.  Verdicts:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread between the runs of one side (quartile
  distance over median) exceeds the bound, so the runs cannot show a
  difference of that size, unless every run of B reads better than
  every run of A;
* ``ok``         — otherwise.

Counts the program makes exactly (``EXACT``) must be equal wherever
both sides ran the same workload on the same seed.  Exit code 1 on any
regression or count mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import paths
import stats

#: per-layer metrics that repeat exactly on the same seed and commit
EXACT = ("obs.sim_cycles", "translator.bbt_blocks", "cacheserver.frame_bytes")


def load_side(path: str) -> List[Dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit(f"compare: no JSON documents in {path}")
    documents = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def runs_of(documents: List[Dict]) -> List[Dict]:
    """Single-workload runs of a side (suite documents hold several)."""
    runs: List[Dict] = []
    for document in documents:
        runs += document["runs"] if "runs" in document else [document]
    return runs


def load_bounds() -> Dict[str, Tuple[float, str]]:
    return {m["name"]: (m["bound"], m["better"])
            for m in paths.benchmark_json()["end_to_end"]}


def gather(runs: List[Dict], traced: bool) -> Dict[Tuple, List[float]]:
    """(workload, metric) -> values, one per run."""
    values: Dict[Tuple, List[float]] = {}
    for run in runs:
        if bool(run.get("traced")) != traced:
            continue
        for name, entry in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                entry["value"])
    return values


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """The verdict, and by what share of A's median B is worse."""
    median_a, median_b = stats.median(a), stats.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    if max(stats.spread(a), stats.spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return ("ok" if all_better else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(side_a: List[Dict], side_b: List[Dict],
            bounds: Dict[str, Tuple[float, str]]
            ) -> Tuple[List[Dict], List[Dict]]:
    runs_a, runs_b = runs_of(side_a), runs_of(side_b)
    values_a, values_b = gather(runs_a, False), gather(runs_b, False)
    rows = []
    for key in sorted(values_a):
        workload, name = key
        if key not in values_b or name not in bounds:
            continue
        bound, better = bounds[name]
        a, b = values_a[key], values_b[key]
        outcome, worse = verdict(a, b, bound, better)
        rows.append({"workload": workload, "metric": name,
                     "a": stats.quartiles(a), "b": stats.quartiles(b),
                     "runs": (len(a), len(b)), "bound": bound,
                     "better": better, "worse": worse,
                     "verdict": outcome})

    def exact(runs: List[Dict]) -> Dict[Tuple, set]:
        seen: Dict[Tuple, set] = {}
        for run in runs:
            for name in EXACT:
                if name in run["metrics"]:
                    seen.setdefault(
                        (run["workload"], run.get("seed"), name),
                        set()).add(run["metrics"][name]["value"])
        return seen
    exact_a, exact_b = exact(runs_a), exact(runs_b)
    counts = [{"workload": key[0], "seed": key[1], "metric": key[2],
               "a": sorted(exact_a[key]), "b": sorted(exact_b[key]),
               "equal": len(exact_a[key] | exact_b[key]) == 1}
              for key in sorted(exact_a, key=str) if key in exact_b]
    return rows, counts


def format_rows(rows: List[Dict], counts: List[Dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<14} {'A q1/median/q3':<28} "
             f"{'B q1/median/q3':<28} {'runs':<6} {'worse':>7} "
             f"{'bound':>6}  verdict"]
    for row in rows:
        a = "/".join(f"{value:.4g}" for value in row["a"])
        b = "/".join(f"{value:.4g}" for value in row["b"])
        runs = f"{row['runs'][0]}+{row['runs'][1]}"
        lines.append(f"{row['workload']:<12} {row['metric']:<14} {a:<28} "
                     f"{b:<28} {runs:<6} {row['worse']:>+7.1%} "
                     f"{row['bound']:>6.0%}  {row['verdict']}")
    for count in counts:
        state = "equal" if count["equal"] else "MISMATCH"
        lines.append(f"{count['workload']:<12} {count['metric']:<26} "
                     f"seed {count['seed']}: {count['a']} vs "
                     f"{count['b']}  {state}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n")[0])
    rows, counts = compare(load_side(argv[0]), load_side(argv[1]),
                           load_bounds())
    print(format_rows(rows, counts))
    bad = [row for row in rows if row["verdict"] == "regressed"] + \
        [count for count in counts if not count["equal"]]
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    print(f"{len(rows)} rows: {len(bad)} regressed or mismatched, "
          f"{unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
