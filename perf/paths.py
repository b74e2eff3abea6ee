"""Where the benchmark finds the program under test and keeps its files."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

PERF_DIR = Path(__file__).resolve().parent
SRC_DIR = PERF_DIR.parent / "src"
#: everything the benchmark writes (stores, spans, result documents)
OUT_DIR = PERF_DIR / "out"


def benchmark_json() -> Dict:
    """The benchmark's declaration: workloads, metrics with their units,
    directions and bounds, ``run_seconds``."""
    with open(PERF_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def store_root(workload: str, pid: int) -> Path:
    """Where the process ``pid`` running ``workload`` keeps its stores."""
    return OUT_DIR / f"store-{workload}-{pid}"


def add_src() -> None:
    """Put ``src/`` on ``sys.path``; exit 2 if the package is not there
    (the benchmark directory copied without the repository)."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perf: no package to measure at {SRC_DIR / 'repro'}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
