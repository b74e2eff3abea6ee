"""CONC001-002 — lock discipline in the threaded cache server.

The cache server is the only genuinely concurrent component: a
``ThreadingMixIn`` handler thread per connection, all funnelling into
shared ``ServerStats`` counters and one repository writer lease.  Its
race-freedom is asserted dynamically by ``tests/test_cacheserver.py``'s
hammer test, but a hammer only catches what it happens to interleave —
these rules make the discipline checkable on every edit.

**CONC001** — in any ``cacheserver`` class that owns a
``threading.Lock``-style attribute, read-modify-write touches of shared
instance state (``self.x += 1``, ``self.d[k] = v``,
``setattr(self, ...)``) outside ``with self.<lock>`` are violations.
Plain reassignments (``self._server = None``) are exempt: the lifecycle
methods run single-threaded before serving starts, and a reassignment is
atomic under the GIL where an RMW is not.

**CONC002** — lock *acquisition order* must be globally consistent
across ``cacheserver`` and ``persist``: if one code path takes lock A
then lock B (directly, or by calling a function that takes B), no other
path may take B then A, or two handler threads can deadlock.  The
analysis is name-based with one level of call resolution — exactly
enough to see ``_op_push``'s ``_push_lock -> writer lease`` ordering.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex
from repro.lint.rules.common import call_target, lock_attrs_of_class, \
    self_attr

_SCOPE = ("cacheserver",)
_ORDER_SCOPE = ("cacheserver", "persist")


@register_rule
class UnguardedSharedStateRule(Rule):
    rule_id = "CONC001"
    title = "shared-state RMW outside the owning lock"
    rationale = ("handler threads share these objects; an unguarded "
                 "increment or dict store loses updates under "
                 "interleaving")

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        if not module.in_package(*_SCOPE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterable[Violation]:
        locks = lock_attrs_of_class(cls)
        if not locks:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue    # construction happens-before sharing
            yield from self._check_method(module, cls, item, locks)

    def _check_method(self, module, cls, method,
                      locks: Set[str]) -> Iterable[Violation]:
        def walk(node: ast.AST, guarded: bool) -> Iterable[Violation]:
            if isinstance(node, ast.With):
                holds = guarded or any(
                    self_attr(item.context_expr) in locks
                    for item in node.items)
                for child in node.body:
                    yield from walk(child, holds)
                return
            if not guarded:
                yield from self._check_node(module, cls, method, node,
                                            locks)
            for child in ast.iter_child_nodes(node):
                yield from walk(child, guarded)

        for statement in method.body:
            yield from walk(statement, False)

    def _check_node(self, module, cls, method, node,
                    locks) -> Iterable[Violation]:
        where = f"{cls.name}.{method.name}"
        targets = []
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            # plain reassignments of self.<attr> are exempt; only container
            # stores (self.d[k] = v) are read-modify-write hazards
            targets = [t for t in node.targets
                       if isinstance(t, ast.Subscript)]
        for target in targets:
            if isinstance(target, ast.Subscript):
                attr = self_attr(target.value)
                if attr is not None and attr not in locks:
                    yield self.violation(
                        module, node.lineno,
                        f"store into shared container "
                        f"self.{attr}[...] in {where} outside "
                        f"`with self.<lock>`")
            else:
                attr = self_attr(target)
                if attr is not None and attr not in locks:
                    yield self.violation(
                        module, node.lineno,
                        f"read-modify-write of shared self.{attr} in "
                        f"{where} outside `with self.<lock>`")
        if isinstance(node, ast.Call):
            receiver, func = call_target(node)
            if func == "setattr" and receiver is None and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == "self":
                yield self.violation(
                    module, node.lineno,
                    f"setattr(self, ...) in {where} outside "
                    f"`with self.<lock>`")


def _lock_label(expr: ast.AST) -> Optional[str]:
    """Textual identity of a lock-ish with-context / acquire target."""
    attr = self_attr(expr)
    name = None
    if attr is not None:
        name = attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Call):
        _, called = call_target(expr)
        if "lease" in called.lower():
            return "writer.lease"
        return None
    if name is None:
        return None
    lowered = name.lower()
    if "lease" in lowered:
        return "writer.lease"
    if "lock" in lowered:
        return name
    return None


@register_rule
class LockOrderRule(Rule):
    rule_id = "CONC002"
    title = "inconsistent lock-acquisition order"
    rationale = ("two paths taking the same pair of locks in opposite "
                 "orders can deadlock a handler thread against a "
                 "writer; one global order, always")

    def check_project(self,
                      index: ProjectIndex) -> Iterable[Violation]:
        # pass 1: locks each function acquires directly, by bare name
        direct: Dict[str, Set[str]] = {}
        functions: List[Tuple[ModuleInfo, ast.AST]] = []
        for module in index.modules:
            if module.tree is None \
                    or not module.in_package(*_ORDER_SCOPE):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    functions.append((module, node))
                    direct.setdefault(node.name, set()).update(
                        self._direct_locks(node))
        # pass 2: ordered pairs (held A, then acquire B)
        pairs: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for module, func in functions:
            for held, inner, lineno in self._ordered_pairs(func,
                                                           direct):
                pairs.setdefault((held, inner), (module.rel, lineno))
        for (first, second), (path, lineno) in sorted(pairs.items()):
            reverse = pairs.get((second, first))
            if reverse is not None and (first, second) < (second, first):
                rpath, rline = reverse
                yield Violation(
                    rule_id=self.rule_id, severity=self.severity,
                    path=path, line=lineno,
                    message=(f"lock order conflict: {first!r} -> "
                             f"{second!r} here but {second!r} -> "
                             f"{first!r} at {rpath}:{rline}"))

    @staticmethod
    def _direct_locks(func: ast.AST) -> Set[str]:
        found: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for item in node.items:
                    label = _lock_label(item.context_expr)
                    if label:
                        found.add(label)
            elif isinstance(node, ast.Call):
                receiver, called = call_target(node)
                if called == "acquire" and receiver is not None:
                    lowered = receiver.lower()
                    if "lease" in lowered:
                        found.add("writer.lease")
                    elif "lock" in lowered:
                        found.add(receiver)
        return found

    def _ordered_pairs(self, func: ast.AST,
                       direct: Dict[str, Set[str]]):
        """(held, acquired, line) triples for one function body."""

        def walk(node: ast.AST, held: List[str]):
            if isinstance(node, ast.With):
                labels = [label for label in
                          (_lock_label(item.context_expr)
                           for item in node.items) if label]
                for label in labels:
                    for outer in held:
                        if outer != label:
                            yield (outer, label, node.lineno)
                inner_held = held + labels
                for child in node.body:
                    yield from walk(child, inner_held)
                return
            if isinstance(node, ast.Call) and held:
                _, called = call_target(node)
                for inner in direct.get(called, ()):
                    for outer in held:
                        if outer != inner:
                            yield (outer, inner, node.lineno)
            for child in ast.iter_child_nodes(node):
                yield from walk(child, held)

        for statement in getattr(func, "body", []):
            yield from walk(statement, [])
