"""Always-on install-time verification (the sanitizer).

``TranslationDirectory.install`` calls :func:`check_install` for every
translation it wires up.  The check is a no-op unless the sanitizer is
armed for a scope, in one of two modes:

* :func:`raising` — violations raise :class:`TranslationVerifyError`
  immediately, attributing the broken invariant to the exact install
  that produced it (the autouse pytest fixture arms this).
* :func:`collecting` — violations accumulate in a shared report; the
  ``repro verify`` CLI uses this to sweep a whole workload and print
  one summary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.verify.report import VerifierReport


class TranslationVerifyError(AssertionError):
    """An emitted translation broke a machine-checked invariant."""

    def __init__(self, report: VerifierReport) -> None:
        super().__init__(report.format())
        self.report = report


class _SanitizerState:
    def __init__(self) -> None:
        self.mode: Optional[str] = None          # None | 'raise' | 'collect'
        self.report = VerifierReport()


_STATE = _SanitizerState()


def mode() -> Optional[str]:
    return _STATE.mode


@contextmanager
def raising():
    """Arm the sanitizer in raise mode for a scope."""
    previous = _STATE.mode
    _STATE.mode = "raise"
    try:
        yield
    finally:
        _STATE.mode = previous


@contextmanager
def collecting():
    """Arm the sanitizer in collect mode; yields the fresh report."""
    previous_mode, previous_report = _STATE.mode, _STATE.report
    _STATE.mode = "collect"
    _STATE.report = VerifierReport()
    try:
        yield _STATE.report
    finally:
        _STATE.mode, _STATE.report = previous_mode, previous_report


def check_install(directory, translation) -> None:
    """Install-time hook; called by ``TranslationDirectory.install``."""
    if _STATE.mode is None:
        return
    from repro.verify.verifier import verify_translation
    report = verify_translation(translation, memory=directory.memory,
                                directory=directory,
                                words=getattr(directory, "words", None))
    if _STATE.mode == "collect":
        _STATE.report.merge(report)
        return
    if not report.ok:
        raise TranslationVerifyError(report)
