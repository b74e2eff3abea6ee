"""Driving the rule-pack over streams, translations, and directories."""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import List, Optional

from repro.isa.fusible.encoding import UopDecodeError
from repro.verify.report import VerifierReport, Violation
from repro.verify.rules import RULES, VerifyContext, live_native_entries

log = logging.getLogger("repro.verify")

#: Disassembly lines shown around each violation.
CONTEXT_RADIUS = 2


def _context_lines(ctx: VerifyContext, index: int) -> tuple:
    low = max(0, index - CONTEXT_RADIUS)
    high = min(len(ctx.words), index + CONTEXT_RADIUS + 1)
    lines = []
    for position in range(low, high):
        marker = "->" if position == index else "  "
        lines.append(f"{marker} {position:4d}: {ctx.words[position].uop}")
    return tuple(lines)


def run_rules(ctx: VerifyContext) -> VerifierReport:
    """Run every rule the context can support; the one walk all entry
    points (and the warm-start loader, which keeps the context for the
    bytes it encoded) go through."""
    available = ctx.available()
    entry = kind = None
    if ctx.translation is not None:
        entry = ctx.translation.entry
        kind = ctx.translation.kind
    violations: List[Violation] = []
    rules_run = []
    for spec in RULES:
        if not spec.requires <= available:
            continue
        rules_run.append(spec.rule_id)
        for violation in spec.check(ctx):
            if violation.entry is None and entry is not None:
                violation = replace(violation, entry=entry, kind=kind)
            if violation.index is not None and not violation.context:
                violation = replace(
                    violation,
                    context=_context_lines(ctx, violation.index))
            violations.append(violation)
    return VerifierReport(violations=violations,
                          uops_checked=len(ctx.words),
                          rules_run=tuple(rules_run))


def verify_uops(uops, translation=None, memory=None, directory=None,
                live_entries=None) -> VerifierReport:
    """Run every applicable rule over a micro-op stream."""
    return run_rules(VerifyContext(uops, translation=translation,
                                   memory=memory, directory=directory,
                                   live_entries=live_entries))


def verify_translation(translation, memory=None, directory=None,
                       live_entries=None, words=None) -> VerifierReport:
    """Run the full rule-pack over one installed translation.

    What is screened is the installed ``code`` + ``origins`` of either
    translator (or the warm loader), read by the context through
    ``words`` (the installing VM's table; left out, a private one).
    ``live_entries`` (native entry addresses of the directory's live
    translations) lets a sweep over many translations build that set
    once; left out, CHN001 derives it from ``directory`` when needed.
    """
    try:
        ctx = VerifyContext.from_code(
            translation.code, translation.origins, translation=translation,
            memory=memory, directory=directory, live_entries=live_entries,
            words=words)
    except UopDecodeError as error:
        report = VerifierReport(translations_checked=1)
        report.violations.append(Violation(
            rule_id="CCH001",
            message=f"translation bytes do not decode: {error}",
            entry=translation.entry, kind=translation.kind))
        return report
    report = run_rules(ctx)
    report.translations_checked = 1
    if not report.ok:
        log.warning("%s@%#x: %d invariant violation(s)",
                    translation.kind, translation.entry,
                    len(report.violations))
    return report


def verify_directory(directory,
                     memory: Optional[object] = None) -> VerifierReport:
    """Verify every live translation in a directory."""
    memory = memory if memory is not None else directory.memory
    report = VerifierReport()
    live = live_native_entries(directory)
    for cache in (directory.bbt_cache, directory.sbt_cache):
        for translation in cache.translations:
            report.merge(verify_translation(
                translation, memory=memory, directory=directory,
                live_entries=live, words=directory.words))
    return report
