"""TMO001 — request-path timeouts must derive from the deadline budget.

Deadline propagation (docs/overload.md) only bounds work if every
socket and request timeout on the client/server path is computed from
the request's remaining :class:`~repro.persist.deadline.Deadline`
budget — ``min(self.timeout, deadline.remaining())`` — rather than a
hardcoded number.  A literal ``settimeout(2.0)`` deep in the stack is
a latent overrun: a request can keep burning socket time after its
budget is spent, so "no response accepted past its deadline" silently
degrades into "usually".

In the production ``persist``/``cacheserver``/``cluster`` packages,
``settimeout(...)`` calls and ``timeout=`` keywords on the
request-path call names (``settimeout``, ``create_connection``,
``request``/``_request``/``_attempt``) must not pass a bare numeric
literal — derive the value from the propagated deadline (or a config
attribute clamped by it).  Constructor config knobs
(``RemoteRepository(timeout=2.0)``) and lock waits
(``Condition.wait_for(timeout=...)``, ``lease.acquire(timeout=...)``)
are deliberately out of scope: they are capacity configuration, not
per-request I/O bounds.  (Whether the ``overload.*`` fault sites and
the fault table agree is FLT001's check, like every other site's.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.core import Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules.common import call_target, iter_calls

#: Packages whose request paths carry propagated deadlines.
_SCOPE = ("persist", "cacheserver", "cluster")

#: Call names whose ``timeout=`` keyword is a per-request I/O bound
#: (lock/condition waits and constructor config knobs are excluded).
_TIMEOUT_CALLS = frozenset({"settimeout", "create_connection",
                            "request", "_request", "_attempt"})


def _numeric_literal(node: ast.AST) -> Optional[float]:
    """The numeric value when ``node`` is a bare number literal
    (booleans excluded), else None."""
    if isinstance(node, ast.Constant) \
            and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    return None


@register_rule
class DeadlineTimeoutRule(Rule):
    rule_id = "TMO001"
    title = "request-path timeout hardcoded instead of deadline-derived"
    rationale = ("a literal socket/request timeout ignores the "
                 "propagated deadline budget, so work keeps running "
                 "after the request has already been abandoned")

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not module.in_package(*_SCOPE):
            return
        for call in iter_calls(module.tree):
            _, func = call_target(call)
            if func == "settimeout" and call.args:
                value = _numeric_literal(call.args[0])
                if value is not None:
                    yield self.violation(
                        module, call.lineno,
                        f"settimeout({value!r}) hardcodes a socket "
                        f"timeout; derive it from the propagated "
                        f"deadline budget (min(self.timeout, "
                        f"deadline.remaining()))")
            if func not in _TIMEOUT_CALLS:
                continue
            for keyword in call.keywords:
                if keyword.arg != "timeout":
                    continue
                value = _numeric_literal(keyword.value)
                if value is not None:
                    yield self.violation(
                        module, call.lineno,
                        f"{func}(timeout={value!r}) hardcodes a "
                        f"request timeout; derive it from the "
                        f"propagated deadline budget")
