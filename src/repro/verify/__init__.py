"""Translation verifier — static analysis over emitted fusible code.

An independent re-derivation of the invariants the translators are
supposed to maintain (macro-op fusion legality, exit-stub shape and the
R29 continuation discipline, scratch-register hygiene, canonical
words, code-cache/chaining consistency).  The verifier never
consults the emitters; it re-checks their output from first principles
so that a bug in :mod:`repro.translator` cannot hide itself.

What it reads is bytes: a translation's ``code`` walked through a word
table, one ``Segment`` each.  The entry points:

* :func:`verify_translations` — the full rule-pack over installed
  translations (memory image, stubs, chaining, side tables), screened
  as the segments of one context; :func:`verify_translation` is the
  one-translation case.
* :func:`verify_directory` — every live translation in a
  :class:`~repro.translator.code_cache.TranslationDirectory`.

The sanitizer (:mod:`repro.verify.sanitizer`) hooks these into
``TranslationDirectory.install`` so every translation made during the
test suite or a debug run is checked the moment it is created.
"""

from repro.verify.cfg import CFG, Located, build_cfg
from repro.verify.report import Violation, VerifierReport
from repro.verify.rules import RULES, rule_ids
from repro.verify.sanitizer import TranslationVerifyError
from repro.verify.verifier import (
    verify_directory,
    verify_translation,
    verify_translations,
)

__all__ = [
    "CFG",
    "Located",
    "RULES",
    "TranslationVerifyError",
    "VerifierReport",
    "Violation",
    "build_cfg",
    "rule_ids",
    "verify_directory",
    "verify_translation",
    "verify_translations",
]
