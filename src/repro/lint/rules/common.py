"""Shared AST helpers for the reprolint rule packs."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple


def module_imports(tree: ast.AST) -> Tuple[Dict[str, str],
                                           Dict[str, Tuple[str, str]]]:
    """(module aliases, from-import bindings) for one module.

    Returns ``({local name: module}, {local name: (module, original)})``
    — e.g. ``import time as t`` gives ``{"t": "time"}`` and
    ``from time import monotonic as mono`` gives
    ``{"mono": ("time", "monotonic")}``.
    """
    aliases: Dict[str, str] = {}
    members: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                members[alias.asname or alias.name] = (node.module,
                                                       alias.name)
    return aliases, members


def call_target(call: ast.Call) -> Tuple[Optional[str], str]:
    """(receiver name or None, called attribute/function name).

    ``time.monotonic()`` -> ("time", "monotonic"); ``open()`` ->
    (None, "open"); ``self.tracer.instant()`` -> ("tracer", "instant").
    """
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return value.id, func.attr
        if isinstance(value, ast.Attribute):
            return value.attr, func.attr
        return "", func.attr
    return None, ""


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def literal_str_arg(call: ast.Call, position: int = 0) -> Optional[str]:
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """Attribute name when ``node`` is ``self.<name>``, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def lock_attrs_of_class(cls: ast.ClassDef) -> Set[str]:
    """``self.<attr>`` names bound to ``threading.Lock()``-style
    primitives anywhere in the class body."""
    kinds = {"Lock", "RLock", "Condition", "Semaphore",
             "BoundedSemaphore"}
    found: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        _, called = call_target(node.value)
        if called not in kinds:
            continue
        for target in node.targets:
            attr = self_attr(target)
            if attr is not None:
                found.add(attr)
    return found
