"""Module and registry index shared by every reprolint rule.

The engine parses each file once into a :class:`ModuleInfo` (source,
AST, package path, suppression table) and builds one
:class:`ProjectIndex` over the whole run.  The index resolves the
project registries the cross-check rules compare against:

* **event taxonomy** — :data:`repro.obs.tracer.EVENT_TYPES` (OBS001);
* **fault sites** — the union of ``sites`` over the rows of
  :data:`repro.faults.classes.FAULTS` (FLT001);
* **fault-point call sites** — every ``fault_point("<site>")`` literal
  found in the scanned tree (FLT001's drift direction, which the
  ``chaos`` drill also runs as its fail-fast check).

Registries are resolved by importing the live modules — the same
objects the runtime enforces with — never from hardcoded lists; tests
inject substitute registries through the :class:`ProjectIndex`
constructor instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: ``# reprolint: disable=RULE1,RULE2`` — suppress on this line only.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")
#: ``# reprolint: disable-file=RULE`` — suppress for the whole file.
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*reprolint:\s*disable-file=([A-Za-z0-9_,\s]+)")


def _split_ids(blob: str) -> Set[str]:
    return {part.strip() for part in blob.split(",") if part.strip()}


class ModuleInfo:
    """One parsed source file plus everything rules ask about it."""

    def __init__(self, path, source: str) -> None:
        self.path = str(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: Optional[ast.AST] = None
        #: why the file has no tree: a SyntaxError, or the read error
        self.syntax_error: Optional[Exception] = None
        try:
            self.tree = ast.parse(source, filename=self.path)
        except SyntaxError as error:
            self.syntax_error = error
        self.package: Tuple[str, ...] = self._package_of(self.path)
        self.line_suppressions: Dict[int, Set[str]] = {}
        self.file_suppressions: Set[str] = set()
        self._scan_suppressions()

    @staticmethod
    def _package_of(path: str) -> Tuple[str, ...]:
        """Dotted location inside the ``repro`` package, or ``()``.

        ``src/repro/persist/lease.py`` -> ``("persist", "lease")``;
        files outside the package (tests, tools) map to ``()`` so
        project-invariant rules skip them.
        """
        parts = Path(path).parts
        if "repro" not in parts:
            return ()
        inside = parts[len(parts) - parts[::-1].index("repro"):]
        if not inside:
            return ()
        return tuple(inside[:-1]) + (Path(inside[-1]).stem,)

    @property
    def rel(self) -> str:
        """Stable display path (``repro/...`` when inside the package)."""
        if self.package:
            return "repro/" + "/".join(self.package[:-1]
                                       + (self.package[-1] + ".py",))
        return self.path

    def in_package(self, *names: str) -> bool:
        """Whether the module lives under one of the given subpackages
        of ``repro`` (``in_package("persist", "cacheserver")``)."""
        return bool(self.package) and self.package[0] in names

    # -- suppressions ---------------------------------------------------------

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_FILE_RE.search(line)
            if match:
                self.file_suppressions |= _split_ids(match.group(1))
                continue
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            ids = _split_ids(match.group(1))
            self.line_suppressions.setdefault(lineno, set()).update(ids)
            # a suppression on a comment-only line also covers the next
            # code line, so justifications can sit above the statement
            if line.lstrip().startswith("#"):
                target = self._next_code_line(lineno)
                if target is not None:
                    self.line_suppressions.setdefault(
                        target, set()).update(ids)

    def _next_code_line(self, after: int) -> Optional[int]:
        for lineno in range(after + 1, len(self.lines) + 1):
            stripped = self.lines[lineno - 1].strip()
            if stripped and not stripped.startswith("#"):
                return lineno
        return None

    def suppressed(self, rule_id: str, lineno: int) -> bool:
        if rule_id in self.file_suppressions:
            return True
        return rule_id in self.line_suppressions.get(lineno, set())


def _iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _call_name(call: ast.Call) -> str:
    """Bare name of the called object (``fault_point``, ``open``...)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _literal_first_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


class ProjectIndex:
    """Whole-run context: parsed modules plus the project registries."""

    def __init__(self, modules: Optional[List[ModuleInfo]] = None,
                 event_types: Optional[Set[str]] = None,
                 fault_sites: Optional[Set[str]] = None) -> None:
        self.modules: List[ModuleInfo] = list(modules or [])
        self._event_types = event_types
        self._fault_sites = fault_sites
        self._fault_point_calls: Optional[
            List[Tuple[ModuleInfo, int, Optional[str]]]] = None

    # -- registries (source of truth: the live modules) -----------------------

    @property
    def event_types(self) -> Optional[Set[str]]:
        """Registered tracer event names, or None if unresolvable."""
        if self._event_types is None:
            self._event_types = _import_event_types()
        return self._event_types

    @property
    def event_phases(self):
        """Registered event name → Perfetto phase ('X'/'i') mapping,
        or None if unresolvable.  Always live-imported (tests inject
        names through ``event_types``; phase checks want the real
        taxonomy, which injection could only weaken)."""
        try:
            from repro.obs.tracer import EVENT_TYPES
        except ImportError:     # pragma: no cover - always importable
            return None
        return dict(EVENT_TYPES)

    @property
    def fault_sites(self) -> Optional[Set[str]]:
        """Registered fault-point site strings, or None."""
        if self._fault_sites is None:
            self._fault_sites = _import_fault_sites()
        return self._fault_sites

    # -- call-site index -------------------------------------------------------

    def fault_point_calls(self) -> List[
            Tuple[ModuleInfo, int, Optional[str]]]:
        """All ``fault_point(...)`` call sites in the scanned tree as
        (module, line, literal site or None when dynamic)."""
        if self._fault_point_calls is None:
            found = []
            for module in self.modules:
                if module.tree is None:
                    continue
                for call in _iter_calls(module.tree):
                    if _call_name(call) == "fault_point":
                        found.append((module, call.lineno,
                                      _literal_first_arg(call)))
            self._fault_point_calls = found
        return self._fault_point_calls

    def fault_point_literals(self) -> Set[str]:
        return {site for _, _, site in self.fault_point_calls()
                if site is not None}


def _import_event_types() -> Optional[Set[str]]:
    try:
        from repro.obs.tracer import EVENT_TYPES
    except ImportError:         # pragma: no cover - always importable here
        return None
    return set(EVENT_TYPES)


def _import_fault_sites() -> Optional[Set[str]]:
    try:
        from repro.faults.classes import FAULTS
    except ImportError:         # pragma: no cover - always importable here
        return None
    return {site for fault in FAULTS.values() for site in fault.sites}
