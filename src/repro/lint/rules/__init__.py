"""The reprolint rule packs — importing registers every rule.

Project-invariant packs (severity ``error``):

* :mod:`repro.lint.rules.determinism` — DET001-003
* :mod:`repro.lint.rules.concurrency` — CONC001-002
* :mod:`repro.lint.rules.faultcover` — FLT001
* :mod:`repro.lint.rules.observability` — OBS001, OBS003
* :mod:`repro.lint.rules.exceptions` — EXC001
* :mod:`repro.lint.rules.timeouts` — TMO001

Style pack (severity ``warning``):

* :mod:`repro.lint.rules.style` — F401, E501, W291, W191
"""

from repro.lint.rules import concurrency  # noqa: F401
from repro.lint.rules import determinism  # noqa: F401
from repro.lint.rules import exceptions  # noqa: F401
from repro.lint.rules import faultcover  # noqa: F401
from repro.lint.rules import observability  # noqa: F401
from repro.lint.rules import style  # noqa: F401
from repro.lint.rules import timeouts  # noqa: F401
from repro.lint.rules.style import STYLE_RULE_IDS

__all__ = ["STYLE_RULE_IDS"]
