"""reprolint core: rule plugin API, engine, suppressions.

A rule is a subclass of :class:`Rule` registered with
:func:`register_rule`; the engine instantiates every registered rule,
runs ``check_module`` over each parsed file and ``check_project`` once
over the whole :class:`~repro.lint.index.ProjectIndex`, then filters
what fired through one escape hatch: **inline suppressions** —
``# reprolint: disable=RULE`` on the flagged line (or
``disable-file=RULE`` anywhere in the file) for violations that are
individually justified; the justification belongs in a comment next to
the pragma.  A file that cannot be read or parsed is an ``E999``.

Exit semantics match every other linter: any reported violation fails
the run.  Severity (``error`` for invariant rules, ``warning`` for the
style pack) is carried in the report for consumers that want to
distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.lint.index import ModuleInfo, ProjectIndex

ERROR = "error"
WARNING = "warning"


@dataclass
class Violation:
    """One rule firing at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict:
        return {"rule": self.rule_id, "severity": self.severity,
                "path": self.path, "line": self.line,
                "message": self.message}


class Rule:
    """One invariant; subclasses override ``check_module`` and/or
    ``check_project``."""

    #: registry key, also the suppression / ``--rules`` spelling
    rule_id: str = ""
    severity: str = ERROR
    #: one-line summary (``repro lint --list-rules``)
    title: str = ""
    #: why the invariant exists (the docs catalog carries the long form)
    rationale: str = ""

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> Iterable[Violation]:
        return ()

    def check_project(self,
                      index: ProjectIndex) -> Iterable[Violation]:
        return ()

    def violation(self, module: ModuleInfo, line: int,
                  message: str) -> Violation:
        return Violation(rule_id=self.rule_id, severity=self.severity,
                         path=module.rel, line=line, message=message)


RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule {cls.rule_id!r}")
    RULES[cls.rule_id] = cls
    return cls


def all_rule_ids() -> List[str]:
    return sorted(RULES)


@dataclass
class LintReport:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "suppressed": self.suppressed,
            "violations": [v.to_dict() for v in self.violations],
        }

    def format(self) -> str:
        lines = [violation.format() for violation in self.violations]
        status = "clean" if self.ok else \
            f"{len(self.violations)} problem(s)"
        tail = f" ({self.suppressed} suppressed inline)" \
            if self.suppressed else ""
        lines.append(f"reprolint: {self.files} file(s), {status}{tail}")
        return "\n".join(lines)


class LintEngine:
    """Parse, index, run rules, filter suppressions."""

    def __init__(self, rules: Optional[Sequence[str]] = None,
                 event_types=None, fault_sites=None) -> None:
        selected = all_rule_ids() if rules is None else list(rules)
        unknown = [rid for rid in selected if rid not in RULES]
        if unknown:
            raise ValueError(f"unknown rule(s) {unknown}; "
                             f"registered: {all_rule_ids()}")
        self.rules: List[Rule] = [RULES[rid]() for rid in selected]
        self._event_types = event_types
        self._fault_sites = fault_sites

    # -- input collection ------------------------------------------------------

    @staticmethod
    def collect_files(paths: Sequence) -> List[Path]:
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_file() and path.suffix == ".py":
                files.append(path)
            elif path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
        return files

    def lint_paths(self, paths: Sequence) -> LintReport:
        modules = []
        for path in self.collect_files(paths):
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as error:
                # an unreadable file is reported, never skipped
                module = ModuleInfo(path, "")
                module.tree, module.syntax_error = None, error
                modules.append(module)
                continue
            modules.append(ModuleInfo(path, text))
        return self._lint(modules)

    def lint_sources(self, sources: Dict) -> LintReport:
        """Lint in-memory {path: source} (the corpus-test entry point)."""
        return self._lint([ModuleInfo(path, text)
                           for path, text in sources.items()])

    def _lint(self, modules: List[ModuleInfo]) -> LintReport:
        index = ProjectIndex(modules,
                             event_types=self._event_types,
                             fault_sites=self._fault_sites)
        report = LintReport(files=len(modules))
        raw: List[Violation] = []
        for module in modules:
            if module.tree is None:
                error = module.syntax_error
                kind = "syntax error" if isinstance(error, SyntaxError) \
                    else "unreadable"
                raw.append(Violation(
                    rule_id="E999", severity=ERROR, path=module.rel,
                    line=getattr(error, "lineno", 0) or 0,
                    message=f"{kind}: {getattr(error, 'msg', error)}"))
                continue
            for rule in self.rules:
                raw.extend(rule.check_module(module, index))
        for rule in self.rules:
            raw.extend(rule.check_project(index))

        by_rel = {module.rel: module for module in modules}
        for violation in sorted(raw, key=lambda v: (v.path, v.line,
                                                    v.rule_id)):
            module = by_rel.get(violation.path)
            if module is not None and module.suppressed(
                    violation.rule_id, violation.line):
                report.suppressed += 1
                continue
            report.violations.append(violation)
        return report
