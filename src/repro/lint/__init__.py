"""reprolint — the project-invariant static analyzer.

Generic linters (ruff, mypy) check
Python; they cannot check *this project's* contracts: that simulated
time never leaks wall-clock entropy (byte-identical traces), that the
threaded cache server only touches shared counters under its lock, that
every risky I/O call sits behind a registered fault-injection point,
that every traced event name exists in the taxonomy.  reprolint encodes
those invariants as AST rules that cross-check the source tree against
its own registries — :data:`repro.obs.tracer.EVENT_TYPES`,
:data:`repro.faults.classes.FAULTS` — so the registries stay the
single source of truth and the checks never rot into hardcoded lists.

Entry points: ``repro lint`` (CLI), ``make lint`` / ``make verify``
(gates), :class:`LintEngine` (programmatic).  See
``docs/static_analysis.md`` for the rule catalog and the
suppression workflow.
"""

from repro.lint.core import (
    ERROR,
    WARNING,
    LintEngine,
    LintReport,
    Rule,
    RULES,
    Violation,
    all_rule_ids,
    register_rule,
)
from repro.lint.index import ModuleInfo, ProjectIndex

# importing the pack registers every rule with RULES
import repro.lint.rules  # noqa: F401  (registration side effect)

__all__ = [
    "ERROR",
    "WARNING",
    "LintEngine",
    "LintReport",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "RULES",
    "Violation",
    "all_rule_ids",
    "register_rule",
]
