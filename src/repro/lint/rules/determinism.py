"""DET001-003 — determinism: no wall-clock or global-RNG entropy.

The headline reproducibility guarantees (byte-identical traces, seeded
chaos replays, cycle-ledger conservation) all rest on one property: the
only clock in simulated-cycle code is the cycle ledger and the only
randomness is a seeded generator threaded in explicitly.  One stray
``time.time()`` timestamp or ``random.random()`` draw breaks replay in
a way no test notices until the traces stop matching.

Wall-clock-legitimate sites are allowlisted by module: the writer lease
(``persist/lease.py``) *is* a wall-clock protocol (TTLs, steal
deadlines), the remote client (``persist/remote.py``) takes real socket
deadlines and an injectable ``clock``/``sleep`` pair whose defaults are
the real ones, the CLI's ``serve`` loop sleeps for real, the cache
server (``cacheserver/server.py``) times request handling for its
latency histograms, and the fleet engine (``fleet/engine.py``) stamps
herd wall-time into its non-canonical ops section (every canonical
fleet measurement stays on the simulated-cycle clock).  Anything else
needs an inline justification.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.lint.core import Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules.common import call_target, iter_calls, \
    module_imports

#: Modules where wall-clock use is the domain, not a leak.
WALL_CLOCK_ALLOWED = {
    "persist.lease",        # lease TTL / expiry / steal deadlines
    "persist.remote",       # socket deadlines; injectable clock+sleep
    "cli",                  # interactive `repro serve` sleep loop
    "cacheserver.server",   # per-op latency histograms (wall-clock by
                            # nature; excluded from canonical reports)
    "fleet.engine",         # herd wall-time in the non-canonical ops
                            # section; all measurements are sim-cycle
}

_WALL_CLOCK_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
}

_DATETIME_FUNCS = {"now", "utcnow", "today", "fromtimestamp"}

_GLOBAL_RNG_FUNCS = {
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "getrandbits", "seed", "triangular", "betavariate", "vonmisesvariate",
}


def _in_scope(module: ModuleInfo, allow: Set[str]) -> bool:
    if not module.package:          # tests/tools: not simulated code
        return False
    return ".".join(module.package) not in allow


class _DeterminismRule(Rule):
    """Shared scaffolding: resolve import aliases, scan calls."""

    allow: Set[str] = WALL_CLOCK_ALLOWED

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not _in_scope(module, self.allow):
            return
        aliases, members = module_imports(module.tree)
        for call in iter_calls(module.tree):
            yield from self.check_call(module, call, aliases, members)

    def check_call(self, module, call, aliases, members):
        return ()


@register_rule
class WallClockRule(_DeterminismRule):
    rule_id = "DET001"
    title = "wall-clock call in simulated-cycle code"
    rationale = ("simulated time comes from the cycle ledger; a "
                 "time.time()/monotonic()/sleep() call makes runs "
                 "diverge between hosts and replays")

    def check_call(self, module, call, aliases, members):
        receiver, func = call_target(call)
        hit = None
        if receiver is not None and aliases.get(receiver) == "time" \
                and func in _WALL_CLOCK_FUNCS:
            hit = f"time.{func}"
        elif receiver is None and members.get(func, ("",))[0] == "time":
            original = members[func][1]
            if original in _WALL_CLOCK_FUNCS:
                hit = f"time.{original}"
        if hit:
            yield self.violation(
                module, call.lineno,
                f"{hit}() in simulated-cycle module "
                f"{'.'.join(module.package)} (use the cycle ledger / "
                f"an injected clock)")


@register_rule
class DatetimeRule(_DeterminismRule):
    rule_id = "DET002"
    title = "datetime.now()-style call in simulated-cycle code"
    rationale = ("datetime.now()/utcnow()/today() stamp host time into "
                 "results that must be byte-identical across runs")

    def check_call(self, module, call, aliases, members):
        receiver, func = call_target(call)
        if func not in _DATETIME_FUNCS or receiver is None:
            return
        # `import datetime; datetime.datetime.now()` / `datetime.now()`
        # / `from datetime import datetime, date; datetime.now()`
        from_module = members.get(receiver, ("",))[0]
        if aliases.get(receiver) == "datetime" \
                or receiver in ("datetime", "date") \
                and (from_module == "datetime" or receiver == "datetime"):
            yield self.violation(
                module, call.lineno,
                f"datetime wall-clock call {receiver}.{func}() in "
                f"simulated-cycle module {'.'.join(module.package)}")


@register_rule
class GlobalRandomRule(_DeterminismRule):
    rule_id = "DET003"
    title = "unseeded / global RNG use"
    rationale = ("all randomness must flow through a seeded "
                 "random.Random(seed) instance so (seed, faults) "
                 "replays identically; the module-level RNG is shared "
                 "mutable global state")

    # the global RNG is banned everywhere in the package, even the
    # wall-clock-allowlisted modules: jitter must be deterministic too
    allow: Set[str] = set()

    def check_call(self, module, call, aliases, members):
        receiver, func = call_target(call)
        where = ".".join(module.package)
        if receiver is not None and aliases.get(receiver) == "random":
            if func in _GLOBAL_RNG_FUNCS:
                yield self.violation(
                    module, call.lineno,
                    f"module-level random.{func}() in {where} (use a "
                    f"seeded random.Random instance)")
            elif func == "Random" and not call.args:
                yield self.violation(
                    module, call.lineno,
                    f"unseeded random.Random() in {where} (pass an "
                    f"explicit seed)")
            elif func == "SystemRandom":
                yield self.violation(
                    module, call.lineno,
                    f"random.SystemRandom() in {where} draws OS "
                    f"entropy; never reproducible")
        elif receiver is None and func in members:
            from_module, original = members[func]
            if from_module == "random" and original in _GLOBAL_RNG_FUNCS:
                yield self.violation(
                    module, call.lineno,
                    f"module-level random.{original}() in {where} "
                    f"(use a seeded random.Random instance)")
            elif from_module == "random" and original == "Random" \
                    and not call.args:
                yield self.violation(
                    module, call.lineno,
                    f"unseeded random.Random() in {where} (pass an "
                    f"explicit seed)")
