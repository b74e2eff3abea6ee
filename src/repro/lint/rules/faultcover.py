"""FLT001 — fault-point coverage of risky I/O in production paths.

The chaos gate's promise — "no fault changes architected results" — is
only as strong as the fault plane's coverage: a real-system failure
mode (disk write, fsync, rename, socket connect) with no
``fault_point(...)`` in front of it is a path the chaos matrix has
never exercised and the recovery code has never been forced to absorb.

Three checks, all cross-checked against the live fault table
(:data:`repro.faults.classes.FAULTS`), never a hardcoded list:

* every risky call (``open``, ``os.open``, ``os.replace``,
  ``os.rename``, ``os.fsync``, ``socket.socket``, ``.connect``) in a
  production ``persist``/``cacheserver``/``cluster`` function must be
  *dominated* by a ``fault_point`` call earlier in the same function;
* every ``fault_point("<site>")`` literal anywhere in the package must
  name a site some fault listens on (else the call is dead weight that
  injects nothing);
* every site of the table must appear as a literal somewhere in the
  scanned tree (else that fault silently tests nothing — the ``chaos``
  drill runs this rule as its fail-fast preflight).

Dominance is approximated lexically (an earlier ``fault_point`` in the
same function body); intentional exemptions — the lease protocol, whose
contention is injected at ``net.lease`` instead, and fsck, which runs
with injection disarmed because it *is* the repair path — carry inline
suppressions with their justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.lint.core import Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules.common import call_target, iter_calls, \
    literal_str_arg, module_imports

#: Production packages whose I/O must sit behind the fault plane.
_SCOPE = ("persist", "cacheserver", "cluster")

_OS_RISKY = {"open", "replace", "rename", "fsync"}


def _risky_reason(call: ast.Call, os_aliases, socket_aliases
                  ) -> Optional[str]:
    receiver, func = call_target(call)
    if receiver is None and func == "open":
        return "open()"
    if receiver in os_aliases and func in _OS_RISKY:
        return f"os.{func}()"
    if receiver in socket_aliases and func == "socket":
        return "socket.socket()"
    if func == "connect" and receiver is not None \
            and receiver not in os_aliases:
        return f"{receiver}.connect()"
    return None


@register_rule
class FaultCoverageRule(Rule):
    rule_id = "FLT001"
    title = "risky I/O call with no dominating fault_point"
    rationale = ("an I/O call the injector cannot reach is a failure "
                 "mode the chaos gate has never proven survivable")

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not module.package:
            return
        registered = index.fault_sites
        # direction 1: fault_point literals must name registered sites
        # (package-wide, not just persist/cacheserver)
        if registered is not None:
            for call in iter_calls(module.tree):
                if call_target(call)[1] != "fault_point":
                    continue
                site = literal_str_arg(call)
                if site is not None and site not in registered:
                    yield self.violation(
                        module, call.lineno,
                        f"fault_point site {site!r} is not listed by "
                        f"any fault of repro.faults.classes.FAULTS; "
                        f"it injects nothing")
        # direction 2: risky calls need a dominating fault_point
        if not module.in_package(*_SCOPE):
            return
        aliases, _ = module_imports(module.tree)
        os_aliases = {local for local, mod in aliases.items()
                      if mod == "os"}
        socket_aliases = {local for local, mod in aliases.items()
                          if mod == "socket"}
        for func in self._functions(module.tree):
            guards = [call.lineno for call in iter_calls(func)
                      if call_target(call)[1] == "fault_point"]
            first_guard = min(guards) if guards else None
            for call in iter_calls(func):
                reason = _risky_reason(call, os_aliases,
                                       socket_aliases)
                if reason is None:
                    continue
                if first_guard is None or call.lineno < first_guard:
                    yield self.violation(
                        module, call.lineno,
                        f"{reason} in {func.name} has no dominating "
                        f"fault_point(...); the chaos gate cannot "
                        f"exercise this failure path")

    @staticmethod
    def _functions(tree: ast.AST) -> List[ast.AST]:
        return [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]

    def check_project(self,
                      index: ProjectIndex) -> Iterable[Violation]:
        """Direction 3: table sites that nothing in the scanned tree
        visits (drift — also the chaos drill's preflight)."""
        registered = index.fault_sites
        if registered is None or not any(
                module.package for module in index.modules):
            return
        literals = index.fault_point_literals()
        # only meaningful when the scan actually covers the package's
        # production paths (a partial scan would false-positive)
        scanned = {module.package[0] for module in index.modules
                   if module.package}
        if not {"persist", "translator", "vmm"} <= scanned:
            return
        anchors = self._anchor(index)
        for site in sorted(registered - literals):
            path, line = anchors.get(site, ("repro/faults/classes.py",
                                            0))
            yield Violation(
                rule_id=self.rule_id, severity=self.severity,
                path=path, line=line,
                message=(f"fault site {site!r} has no "
                         f"fault_point({site!r}) call in the tree; "
                         f"the fault listening on it tests nothing"))

    @staticmethod
    def _anchor(index: ProjectIndex):
        """Best-effort source anchor per site: the ``Fault(...)`` row
        of the scanned fault table that names it (its third argument,
        ``sites``)."""
        anchors = {}
        for module in index.modules:
            if module.tree is None \
                    or not module.in_package("faults"):
                continue
            for call in iter_calls(module.tree):
                if call_target(call)[1] != "Fault":
                    continue
                for node in call.args[2:3]:
                    for element in ast.walk(node):
                        if isinstance(element, ast.Constant) \
                                and isinstance(element.value, str):
                            anchors.setdefault(
                                element.value,
                                (module.rel, call.lineno))
        return anchors
