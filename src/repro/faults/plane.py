"""The fault plane — injection hooks compiled into the production paths.

Production code (repository I/O, the translators, the dispatch loop, the
warm-start loader) calls :func:`fault_point` at the places where real
systems fail.  The call is a cheap no-op unless a
:class:`~repro.faults.injector.FaultInjector` has been armed with
:func:`injecting`, mirroring the sanitizer pattern used by the
translation verifier: zero cost and zero behaviour change in normal
operation, deterministic failure on demand under test.

A fault point may

* **raise** an injected exception (simulated EIO/ENOSPC, a translator
  crash mid-translation), which the caller's recovery path must absorb;
* **return a value** the caller treats as an injected stimulus (a bogus
  hotspot candidate, a forced verifier rejection);
* **mutate state** through the context it is handed (flip a byte in an
  installed translation).

This module is dependency-free so any layer can import it without
cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

#: The armed injector, or None (the common case: faults disabled).
_ACTIVE = None


def fault_point(site: str, **context):
    """Visit one injection site; no-op unless an injector is armed.

    Returns whatever the injector's faults produce for this site
    (usually ``None``), and may raise an injected exception.
    """
    if _ACTIVE is None:
        return None
    return _ACTIVE.visit(site, context)


def arm(injector) -> None:
    global _ACTIVE
    _ACTIVE = injector


@contextmanager
def injecting(injector: Optional[object]):
    """Arm ``injector`` for the duration of the block (None = no-op)."""
    previous = _ACTIVE
    arm(injector)
    try:
        yield injector
    finally:
        arm(previous)
