"""The timing layer's cache model.

:class:`ColdFootprintModel` is the memory-startup abstraction the
event-driven simulator uses at 500M-instruction scale.  The paper's
scenario 2 starts with *empty caches*; the dominant cache effect that
differs between configurations is the pattern of cold (first-touch)
misses.  Steady-state miss behaviour for a given working set is common
across configurations and is folded into each application's base CPI
(see DESIGN.md §6.3), exactly as the paper's own §3.1 argues when it
calls scenario-3 differences "second order".
"""

from __future__ import annotations

from typing import Set

class ColdFootprintModel:
    """First-touch (cold miss) accounting at 64-byte line granularity.

    ``touch(addr, size, charge)`` returns the cycles to charge for lines
    in the range never seen before, at ``charge`` cycles per line, and
    records them as warm.  Distinct charge levels express where a line's
    backing data lives: architected code comes from main memory
    (~168 cycles), freshly written translations are L2-resident
    (~12 cycles to refill L1I).
    """

    LINE_SIZE = 64

    def __init__(self) -> None:
        self._warm: Set[int] = set()
        self.cold_lines = 0
        self.cold_cycles = 0

    def touch(self, addr: int, size: int, charge: int) -> int:
        first = addr // self.LINE_SIZE
        last = (addr + max(size, 1) - 1) // self.LINE_SIZE
        cycles = 0
        for line in range(first, last + 1):
            if line not in self._warm:
                self._warm.add(line)
                cycles += charge
                self.cold_lines += 1
        self.cold_cycles += cycles
        return cycles

    def is_warm(self, addr: int) -> bool:
        return addr // self.LINE_SIZE in self._warm
