"""The style pack: a zero-dependency stand-in for ruff.

Approximates the ruff surface configured in ``pyproject.toml`` with
zero dependencies, under ruff's rule IDs so the two ``make lint``
branches speak the same language: unused imports (F401), overlong
lines (E501, 99 columns), trailing whitespace (W291) and tab
indentation (W191).  Syntax errors surface as E999 from the engine.

Unlike the project-invariant rules these apply to *every* scanned file
(tests and tools included) and carry ``warning`` severity — they still
fail the lint run, but JSON consumers can tell style from invariants.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, Tuple

from repro.lint.core import WARNING, Rule, Violation, register_rule
from repro.lint.index import ModuleInfo, ProjectIndex

MAX_LINE = 99


def _import_bindings(tree: ast.AST) -> List[Tuple[int, str]]:
    """(line, bound name) for every import binding in the module."""
    bindings: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bindings.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                bindings.append((node.lineno, name))
    return bindings


@register_rule
class UnusedImportRule(Rule):
    rule_id = "F401"
    severity = WARNING
    title = "imported but unused"
    rationale = "dead imports hide real dependencies"

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        # __init__ modules import things to re-export them
        if Path(module.path).name == "__init__.py":
            return
        source = module.source
        for lineno, name in _import_bindings(module.tree):
            if name.startswith("_"):
                continue
            # textual use count is deliberately forgiving: occurrences
            # in string annotations, docstrings or comments all count
            # as uses, so anything reported here really is dead
            uses = len(re.findall(rf"\b{re.escape(name)}\b", source))
            imports = len(re.findall(
                rf"^\s*(?:from\s+\S+\s+)?import\b.*\b{re.escape(name)}\b",
                source, re.MULTILINE))
            if uses <= imports:
                yield self.violation(module, lineno,
                                     f"'{name}' imported but unused")


@register_rule
class LineLengthRule(Rule):
    rule_id = "E501"
    severity = WARNING
    title = "line too long"
    rationale = "the repo reads at 99 columns everywhere"

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        for lineno, line in enumerate(module.lines, start=1):
            if len(line) > MAX_LINE:
                yield self.violation(
                    module, lineno,
                    f"line too long ({len(line)} > {MAX_LINE})")


@register_rule
class TrailingWhitespaceRule(Rule):
    rule_id = "W291"
    severity = WARNING
    title = "trailing whitespace"
    rationale = "trailing whitespace churns diffs"

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        for lineno, line in enumerate(module.lines, start=1):
            if line != line.rstrip():
                yield self.violation(module, lineno,
                                     "trailing whitespace")


@register_rule
class TabIndentRule(Rule):
    rule_id = "W191"
    severity = WARNING
    title = "tab indentation"
    rationale = "the tree indents with spaces"

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        for lineno, line in enumerate(module.lines, start=1):
            if line.lstrip(" ").startswith("\t"):
                yield self.violation(module, lineno, "tab indentation")


#: rule IDs the ``--no-style`` CLI switch drops (ruff covers these)
STYLE_RULE_IDS = ("F401", "E501", "W291", "W191")
