"""Always-on install-time verification (the sanitizer).

``TranslationDirectory.install`` calls :func:`check_install` for every
translation it wires up.  The check is a no-op unless the sanitizer is
armed, either globally (:func:`enable`, the autouse pytest fixture, the
``repro verify`` CLI) or per-directory (``verify_on_install=True``, set
by the ``verify_translations`` machine-config flag).

Two modes:

* ``"raise"`` — violations raise :class:`TranslationVerifyError`
  immediately, attributing the broken invariant to the exact install
  that produced it (the sanitizer style used by the test suite).
* ``"collect"`` — violations accumulate in a shared report; the CLI
  uses this to sweep a whole workload and print one summary.
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


def enabled() -> bool:
    return _STATE.mode is not None


def mode() -> Optional[str]:
    return _STATE.mode


def enable(new_mode: str = "raise") -> None:
    if new_mode not in ("raise", "collect"):
        raise ValueError(f"unknown sanitizer mode {new_mode!r}")
    _STATE.mode = new_mode


def disable() -> None:
    _STATE.mode = None


def current_report() -> VerifierReport:
    return _STATE.report


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
    per_directory = getattr(directory, "verify_on_install", False)
    if _STATE.mode is None and not per_directory:
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
