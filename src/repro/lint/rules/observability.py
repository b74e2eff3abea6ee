"""OBS001, OBS003 — taxonomy conformance for events and spans.

The tracer rejects event names outside
:data:`repro.obs.tracer.EVENT_TYPES` *at emit time* — which means a
typo'd event name on a cold error path survives until that path
happens to execute.  These rules move the check to lint time.

**OBS001** — every literal event name passed to a tracer ``instant`` /
``complete`` call must exist in ``EVENT_TYPES`` (resolved from the live
module, so adding an event to the taxonomy automatically legalizes its
emit sites).  Dynamic names (forwarder shims like
``CacheServer._trace``) are skipped — the runtime check still covers
them.

**OBS003** — spans opened from a propagated trace context
(:meth:`repro.obs.telemetry.SpanBuffer.span`) must (a) use a name
registered in ``EVENT_TYPES`` with the slice (``"X"``) phase — span
records become ``server.op`` slices in the merged fleet trace, and an
unregistered name would raise at open time on whatever request first
carries a context — and (b) be opened as a ``with``-statement context
manager.  A bare ``.span(...)`` call never runs the generator body, so
nothing is recorded and the span silently leaks out of the buffer;
the close-on-all-paths guarantee (including the exception path, which
stamps ``status: "error"``) only holds inside ``with``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules.common import call_target, iter_calls, \
    literal_str_arg

_EMIT_METHODS = {"instant", "complete"}


@register_rule
class EventTaxonomyRule(Rule):
    rule_id = "OBS001"
    title = "tracer emit of an unregistered event name"
    rationale = ("an event name outside EVENT_TYPES raises at emit "
                 "time — on whatever cold path finally reaches it")

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not module.package:
            return
        known = index.event_types
        if known is None:       # registry unresolvable: skip silently
            return
        for call in iter_calls(module.tree):
            receiver, func = call_target(call)
            if func not in _EMIT_METHODS or receiver is None:
                continue
            name = literal_str_arg(call)
            if name is None:
                continue        # dynamic forwarder: runtime-checked
            if name not in known:
                yield self.violation(
                    module, call.lineno,
                    f"event {name!r} is not in EVENT_TYPES "
                    f"(repro.obs.tracer); this emit will raise at "
                    f"runtime")


@register_rule
class SpanDisciplineRule(Rule):
    rule_id = "OBS003"
    title = "propagated-context span misuse"
    rationale = ("a span opened outside 'with' never closes (its "
                 "record is lost on every path), and a name outside "
                 "the EVENT_TYPES slice taxonomy raises at open time")

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not module.package:
            return
        known = index.event_phases
        with_items = {
            id(item.context_expr)
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for call in iter_calls(module.tree):
            receiver, func = call_target(call)
            if func != "span" or receiver is None:
                continue
            name = literal_str_arg(call)
            if name is not None and known is not None \
                    and known.get(name) != "X":
                yield self.violation(
                    module, call.lineno,
                    f"span name {name!r} is not a slice ('X') event in "
                    f"EVENT_TYPES (repro.obs.tracer); opening it will "
                    f"raise at runtime")
            if id(call) not in with_items:
                yield self.violation(
                    module, call.lineno,
                    f"span opened outside a 'with' statement leaks: "
                    f"the record is never closed or buffered on any "
                    f"path (use 'with ....span(...) as span:')")
