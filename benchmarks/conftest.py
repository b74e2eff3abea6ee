"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables or figures
(see DESIGN.md's per-experiment index).  Simulation results for the
Winstone suite are computed once per session and shared; each benchmark
additionally times a representative kernel via pytest-benchmark.

Reproduced figures are *emitted* — written to ``results/<name>.txt`` and
echoed to the real stdout so they appear in ``bench_output.txt`` even
under pytest's capture.  ``make paper`` (a stage of ``make verify``)
runs every bench once with ``--benchmark-disable`` and fails when a
regenerated ``results/`` file differs from the checked-in one.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Tuple

import pytest

from repro.core import (
    ALL_CONFIGS,
    MachineConfig,
)
from repro.timing import Scenario, simulate_startup
from repro.timing.startup_sim import StartupResult
from repro.workloads import Workload, generate_workload, winstone_suite

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Simulation scales (paper: 500M for time-series, 100M for aggregates).
FULL_TRACE = 500_000_000
SHORT_TRACE = 100_000_000

SEED = 0


#: Figures emitted during the session, flushed (uncaptured) into the
#: terminal summary so they appear in `bench_output.txt`.
_EMITTED: list = []


def emit(name: str, text: str) -> None:
    """Write a reproduced figure to results/ and queue it for the
    terminal summary (pytest captures stdout at the fd level, so direct
    writes would be swallowed)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _EMITTED.append(text)


def emit_json(name: str, payload: dict) -> None:
    """Write a machine-readable result to ``results/<name>.json``
    (deterministic serialization: sorted keys, fixed separators)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1,
                   separators=(",", ": ")) + "\n")


def ledger_payload(result) -> dict:
    """The per-phase cycle attribution of one startup simulation
    (:class:`repro.obs.ledger.CycleLedger`), JSON-ready."""
    ledger = result.ledger
    return {
        "config": result.config_name,
        "app": result.app_name,
        "scenario": result.scenario.value,
        "total_cycles": result.total_cycles,
        "phase_cycles": ledger.totals() if ledger else {},
        "eq1": ledger.eq1_breakdown() if ledger else {},
        "conserved": bool(result.conserved),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every reproduced figure after the test summary."""
    if not _EMITTED:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for text in _EMITTED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


class SuiteLab:
    """Lazily-computed simulation results over the Winstone suite."""

    def __init__(self) -> None:
        self._workloads: Dict[Tuple[str, int], Workload] = {}
        self._results: Dict[Tuple[str, str, int, Scenario],
                            StartupResult] = {}
        self.configs: Dict[str, MachineConfig] = ALL_CONFIGS()
        self.apps = winstone_suite()

    def workload(self, app_name: str, dyn_instrs: int) -> Workload:
        key = (app_name, dyn_instrs)
        if key not in self._workloads:
            app = next(app for app in self.apps if app.name == app_name)
            self._workloads[key] = generate_workload(
                app, dyn_instrs=dyn_instrs, seed=SEED)
        return self._workloads[key]

    def result(self, app_name: str, config_name: str,
               dyn_instrs: int = FULL_TRACE,
               scenario: Scenario = Scenario.MEMORY_STARTUP
               ) -> StartupResult:
        key = (app_name, config_name, dyn_instrs, scenario)
        if key not in self._results:
            workload = self.workload(app_name, dyn_instrs)
            config = self.configs[config_name]
            self._results[key] = simulate_startup(config, workload,
                                                  scenario)
        return self._results[key]

    def suite_results(self, config_name: str,
                      dyn_instrs: int = FULL_TRACE,
                      scenario: Scenario = Scenario.MEMORY_STARTUP):
        return [self.result(app.name, config_name, dyn_instrs, scenario)
                for app in self.apps]

    def steady_ipcs(self) -> Dict[str, float]:
        return {app.name: app.ipc_ref for app in self.apps}


@pytest.fixture(scope="session")
def lab() -> SuiteLab:
    return SuiteLab()
