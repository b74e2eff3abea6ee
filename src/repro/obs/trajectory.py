"""Bench trajectory — append-only benchmark history + regression gate.

Single-shot benchmark results answer "how fast is it now"; the
trajectory answers "which PR made it slower".  Every benchmark run
that measured something new appends one row per bench to
``results/bench_history.jsonl`` (a run that repeats its bench's newest
row appends nothing):

    {"bench": <id>, "fp": <config fingerprint>, "metrics": {...}}

Rows are pure JSON lines with sorted keys and **no timestamps** — the
file's line order is the time axis, exactly like the collector's
scrape index, so the history itself is deterministic for a given
sequence of runs.  The config fingerprint hashes the knobs that
legitimately change results (seed, thresholds, instruction budgets);
``repro bench diff`` only compares rows whose fingerprints match, so
an intentional re-tune starts a fresh baseline instead of tripping
the gate.

Regression detection is direction-aware: metric names ending in
cycle/latency/miss/error-ish suffixes regress *upward*, names that
are obviously throughput-ish regress *downward*, and the gate fails
on any relative change beyond the tolerance (default 5%).
The ``bench`` and ``overload`` drills of ``tools/drills.py`` append
their rows and run the gate (docs/observability.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Default history location (shared with the benchmark suite).
HISTORY_PATH = "results/bench_history.jsonl"

#: Default regression tolerance, in percent.
DEFAULT_TOLERANCE = 5.0

#: Metric-name substrings where *higher* is better; everything else
#: treats an increase as the regression direction (cycles, misses,
#: errors, byte counts — the common case in this repo).
_HIGHER_IS_BETTER = ("gain", "loaded", "ipc", "throughput", "hit",
                     "per_sec", "deduped")


def config_fingerprint(config: Dict) -> str:
    """Short stable hash of the knobs that legitimately move results."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def history_row(bench: str, metrics: Dict, config: Dict) -> Dict:
    """One trajectory row: scalar metrics only, sorted, no clocks."""
    scalars = {}
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            continue
        scalars[name] = value
    return {"bench": str(bench), "fp": config_fingerprint(config),
            "metrics": scalars}


def append_row(row: Dict, path=HISTORY_PATH) -> bool:
    """Append ``row`` unless it repeats the newest row of its bench and
    fingerprint — a re-run that measured the same thing is not a new
    point on the trajectory (and must not dirty the checked-in file).
    Returns whether a line was written."""
    path = Path(path)
    for earlier in reversed(load_history(path)):
        if earlier["bench"] == row["bench"] \
                and earlier.get("fp") == row.get("fp"):
            if earlier == row:
                return False
            break
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return True


def load_history(path=HISTORY_PATH) -> List[Dict]:
    """All rows in file order; a missing file is an empty history."""
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as error:
            raise ValueError(
                f"{path}:{line_no}: corrupt history row: {error}"
            ) from error
        if not isinstance(row, dict) or "bench" not in row:
            raise ValueError(f"{path}:{line_no}: malformed history row")
        rows.append(row)
    return rows


def metric_direction(name: str) -> str:
    """``up`` when a larger value is better, else ``down``."""
    lowered = name.lower()
    if any(tag in lowered for tag in _HIGHER_IS_BETTER):
        return "up"
    return "down"


def _relative_change(base: float, value: float) -> Optional[float]:
    if base == 0:
        return None if value == 0 else float("inf")
    return (value - base) / abs(base) * 100.0


def bench_diff(rows: List[Dict], against: str = "last",
               tolerance: float = DEFAULT_TOLERANCE
               ) -> Tuple[List[str], List[Dict]]:
    """Compare each bench's newest row against its baseline.

    ``against="last"`` baselines on the previous same-fingerprint row
    (PR-over-PR drift); ``"first"`` on the oldest one (cumulative
    drift).  Returns ``(regressions, comparisons)`` — the gate fails
    when ``regressions`` is non-empty.  A bench with no matching
    baseline (first run, or a fingerprint change) passes vacuously
    and says so in its comparison entry.
    """
    if against not in ("last", "first"):
        raise ValueError(f"bad --against {against!r} "
                         f"(choose last or first)")
    newest: Dict[str, Dict] = {}
    for row in rows:                # later rows shadow earlier ones
        newest[row["bench"]] = row
    regressions: List[str] = []
    comparisons: List[Dict] = []
    for bench in sorted(newest):
        row = newest[bench]
        lineage = [r for r in rows
                   if r["bench"] == bench and r.get("fp") == row.get("fp")]
        if len(lineage) < 2:
            comparisons.append({"bench": bench, "baseline": None,
                                "metrics": {}})
            continue
        baseline = lineage[0] if against == "first" else lineage[-2]
        entry: Dict = {"bench": bench, "baseline": against,
                       "metrics": {}}
        base_metrics = baseline.get("metrics", {})
        for name in sorted(row.get("metrics", {})):
            value = row["metrics"][name]
            if name not in base_metrics:
                continue
            base = base_metrics[name]
            change = _relative_change(base, value)
            direction = metric_direction(name)
            regressed = False
            if change is None:
                pass                        # 0 -> 0: steady
            elif change == float("inf"):
                regressed = direction == "down"
            elif direction == "down":
                regressed = change > tolerance
            else:
                regressed = change < -tolerance
            entry["metrics"][name] = {
                "base": base, "value": value,
                "change_pct": (None if change is None
                               or change == float("inf") else
                               round(change, 2)),
                "regressed": regressed,
            }
            if regressed:
                shown = "new nonzero" if change == float("inf") \
                    else f"{change:+.2f}%"
                regressions.append(
                    f"{bench}: {name} {base} -> {value} ({shown}, "
                    f"tolerance {tolerance:g}%, "
                    f"{'lower' if direction == 'down' else 'higher'}"
                    f"-is-better)")
        comparisons.append(entry)
    return regressions, comparisons


def format_diff(regressions: List[str],
                comparisons: List[Dict]) -> str:
    lines = []
    for entry in comparisons:
        if entry["baseline"] is None:
            lines.append(f"{entry['bench']}: no baseline "
                         f"(first run at this fingerprint)")
            continue
        moved = {name: info for name, info
                 in entry["metrics"].items()
                 if info["change_pct"] not in (None, 0.0)}
        if not moved:
            lines.append(f"{entry['bench']}: steady "
                         f"({len(entry['metrics'])} metric(s))")
            continue
        lines.append(f"{entry['bench']}:")
        for name, info in moved.items():
            flag = "  REGRESSED" if info["regressed"] else ""
            lines.append(
                f"  {name}: {info['base']} -> {info['value']} "
                f"({info['change_pct']:+.2f}%){flag}")
    if regressions:
        lines.append("")
        lines.append(f"{len(regressions)} regression(s) beyond "
                     f"tolerance:")
        lines.extend(f"  {problem}" for problem in regressions)
    else:
        lines.append("trajectory ok: no regressions beyond tolerance")
    return "\n".join(lines)
