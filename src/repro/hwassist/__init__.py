"""Hardware assists for binary translation (Section 4 of the paper).

* :mod:`~repro.hwassist.xltx86` — the backend functional unit behind the
  new ``XLTx86`` instruction (Table 1, Fig. 6/7): decode + crack one
  architected instruction per invocation.
* :mod:`~repro.hwassist.hotspot_detector` — a Merten-style branch behavior
  buffer for hardware hotspot detection (needed by VM.fe, where no BBT
  code exists to carry software profiling).

VM.fe's dual-mode frontend decoder (Fig. 4/5) is not a functional unit
here: the timing model charges its x86-mode per instruction
(``x86_mode_cpi``).
"""

from repro.hwassist.xltx86 import XLTX86_LATENCY, XLTx86Result, XLTx86Unit
from repro.hwassist.hotspot_detector import BranchBehaviorBuffer

__all__ = ["BranchBehaviorBuffer", "XLTX86_LATENCY", "XLTx86Result",
           "XLTx86Unit"]
