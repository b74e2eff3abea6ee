"""Violation records and machine-readable verifier reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Violation:
    """One invariant violation, located down to the micro-op."""

    rule_id: str
    message: str
    index: Optional[int] = None      # micro-op index within the stream
    offset: Optional[int] = None     # byte offset within the translation
    x86_addr: Optional[int] = None   # architected origin of the micro-op
    entry: Optional[int] = None      # architected entry of the translation
    kind: Optional[str] = None       # 'bbt' | 'sbt' | None (bare stream)
    context: Tuple[str, ...] = ()    # surrounding disassembly
    #: which segment of the screened context it is in (its position;
    #: not part of the report's output)
    segment: Optional[int] = field(default=None, compare=False,
                                   repr=False)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "message": self.message,
            "index": self.index,
            "offset": self.offset,
            "x86_addr": self.x86_addr,
            "entry": self.entry,
            "kind": self.kind,
            "context": list(self.context),
        }

    def format(self) -> str:
        where = []
        if self.entry is not None:
            where.append(f"{self.kind or 'translation'}@{self.entry:#x}")
        if self.index is not None:
            where.append(f"uop {self.index}")
        if self.offset is not None:
            where.append(f"+{self.offset:#x}")
        if self.x86_addr is not None:
            where.append(f"x86 {self.x86_addr:#x}")
        location = " ".join(where) or "stream"
        lines = [f"[{self.rule_id}] {location}: {self.message}"]
        lines.extend(f"    {line}" for line in self.context)
        return "\n".join(lines)


@dataclass
class VerifierReport:
    """Aggregated result of one or more verification passes."""

    violations: List[Violation] = field(default_factory=list)
    translations_checked: int = 0
    uops_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "VerifierReport") -> "VerifierReport":
        self.violations.extend(other.violations)
        self.translations_checked += other.translations_checked
        self.uops_checked += other.uops_checked
        seen = dict.fromkeys(self.rules_run + other.rules_run)
        self.rules_run = tuple(seen)
        return self

    def by_rule(self) -> dict:
        counts: dict = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "translations_checked": self.translations_checked,
            "uops_checked": self.uops_checked,
            "rules_run": list(self.rules_run),
            "violation_counts": self.by_rule(),
            "violations": [v.to_dict() for v in self.violations],
        }

    def format(self) -> str:
        head = (f"verifier: {self.translations_checked} translation(s), "
                f"{self.uops_checked} micro-op(s), "
                f"{len(self.violations)} violation(s)")
        if self.ok:
            return head
        parts = [head]
        parts.extend(violation.format() for violation in self.violations)
        return "\n".join(parts)
