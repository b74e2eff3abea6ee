"""What a VM process loads: the functional stack boots without numpy.

numpy serves only the timing layer's synthetic-workload generator
(``repro.workloads.trace.generate_workload``), which imports it on first
use.  Everything that boots, publishes, serves or herds VMs must import
without it: its ~12 MB was a third of a boot process's peak RSS.  The
check runs in a fresh interpreter because this test process has loaded
numpy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BOOT_STACK = ("repro.core", "repro.persist", "repro.cacheserver",
              "repro.cluster", "repro.fleet", "repro.cli",
              "repro.workloads.programs")


def test_boot_stack_imports_without_numpy():
    script = "; ".join(
        [f"import {module}" for module in BOOT_STACK]
        + ["import sys", "print('numpy' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False", \
        "importing the boot stack loaded numpy"
