"""The deterministic fault injector.

One :class:`FaultInjector` owns a seeded random generator and fresh
copies of a set of :data:`~repro.faults.classes.FAULTS` rows.  Runtime
faults are consulted at every :func:`~repro.faults.plane.fault_point`
visit whose site they listen on; disk faults are applied to a repository directory with
:meth:`FaultInjector.mangle_repository` (between a save and the next
warm start, modelling rot while the VM was down).

Everything the injector does is recorded in :attr:`injected` (per-fault
firing counts) and :attr:`log` (ordered event tuples), so a chaos
failure can name the exact faults that preceded it — and re-running
with the same seed replays them bit-for-bit.
"""

from __future__ import annotations

import logging
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.classes import Fault, all_fault_names, make_fault

# module logger; self.log below is the injector's *event* log
_log = logging.getLogger("repro.faults")


class FaultInjector:
    """Seeded, bounded driver for a set of faults (names, or
    :class:`Fault` rows used as given)."""

    def __init__(self, seed: int,
                 faults: Optional[Iterable] = None,
                 **overrides) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        names = list(faults) if faults is not None else all_fault_names()
        self.faults: List[Fault] = [
            fault if isinstance(fault, Fault)
            else make_fault(fault, **overrides)
            for fault in names]
        #: fault name -> number of times it actually fired
        self.injected: Dict[str, int] = {f.name: 0 for f in self.faults}
        #: ordered (site, fault name, detail) event log
        self.log: List[Tuple[str, str, object]] = []
        self._by_site: Dict[str, List[Fault]] = {}
        for fault in self.faults:
            for site in fault.sites:
                self._by_site.setdefault(site, []).append(fault)

    # -- runtime faults -----------------------------------------------------

    def visit(self, site: str, context: Dict):
        """One fault-point visit: let every listener decide to fire."""
        result = None
        for fault in self._by_site.get(site, ()):
            if self.injected[fault.name] >= fault.max_injections:
                continue
            if self.rng.random() >= fault.rate:
                continue
            self.injected[fault.name] += 1
            try:
                fired = fault.fire(fault, self.rng, site, context)
            except Exception as error:
                self.log.append((site, fault.name, repr(error)))
                raise
            self.log.append((site, fault.name, fired))
            _log.debug("fault %s fired at %s (seed %d)", fault.name,
                       site, self.seed)
            if fired is not None:
                result = fired
        return result

    # -- disk faults --------------------------------------------------------

    def mangle_repository(self, root) -> int:
        """Apply every disk fault to a repository; returns the total
        number of corruptions introduced."""
        root = Path(root)
        total = 0
        for fault in self.faults:
            if fault.mangle is None:
                continue
            applied = fault.mangle(fault, self.rng, root)
            if applied:
                self.injected[fault.name] += applied
                self.log.append(("repository", fault.name, applied))
            total += applied
        return total

    # -- reporting ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def summary(self) -> str:
        fired = {name: count for name, count in sorted(self.injected.items())
                 if count}
        if not fired:
            return f"injector(seed={self.seed}): no faults fired"
        parts = ", ".join(f"{name} x{count}"
                          for name, count in fired.items())
        return f"injector(seed={self.seed}): {parts}"
