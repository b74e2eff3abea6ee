"""Driving the rule-pack over streams, translations, and directories."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from typing import List, Optional

from repro.isa.fusible.encoding import UopDecodeError, WordTable
from repro.verify.report import VerifierReport, Violation
from repro.verify.rules import (
    RULES,
    Segment,
    VerifyContext,
    live_native_entries,
)

log = logging.getLogger("repro.verify")

#: Disassembly lines shown around each violation.
CONTEXT_RADIUS = 2


def _context_lines(ctx: VerifyContext, seg: Segment, index: int) -> tuple:
    low = max(seg.start, index - CONTEXT_RADIUS)
    high = min(seg.end, index + CONTEXT_RADIUS + 1)
    lines = []
    for position in range(low, high):
        marker = "->" if position == index else "  "
        lines.append(f"{marker} {position - seg.start:4d}: "
                     f"{ctx.words[position].uop}")
    return tuple(lines)


def _placed(ctx: VerifyContext, number: int,
            violation: Violation) -> Violation:
    """``violation`` of segment ``number``, located in it: index and
    offset from its start, its translation's entry and kind."""
    seg = ctx.segments[number]
    fields: dict = {"segment": number}
    if violation.entry is None and seg.translation is not None:
        fields.update(entry=seg.translation.entry,
                      kind=seg.translation.kind)
    if violation.index is not None:
        fields.update(index=violation.index - seg.start,
                      offset=violation.offset - seg.base)
        if not violation.context:
            fields["context"] = _context_lines(ctx, seg, violation.index)
    return replace(violation, **fields)


def run_rules(ctx: VerifyContext) -> VerifierReport:
    """Run every rule the context can support, each once: a stream rule
    over the joined words, a translation rule over each segment.  The
    one walk every entry point and the warm-start loader go through.
    Violations come segment by segment, each segment's in rule order,
    and say which segment they are in (``Violation.segment``)."""
    found: List[List[Violation]] = [[] for _ in ctx.segments]
    rules_run, specs = _runnable(ctx.translated, ctx.memory is not None,
                                 ctx.directory is not None)
    for spec in specs:
        if spec.per_segment:
            for number, seg in enumerate(ctx.segments):
                for violation in spec.check(ctx, seg):
                    found[number].append(violation)
        else:
            for violation in spec.check(ctx):
                found[ctx.segment_at(violation.index)].append(violation)
    return VerifierReport(
        violations=[_placed(ctx, number, violation)
                    for number, violations in enumerate(found)
                    if violations for violation in violations],
        uops_checked=len(ctx.words), rules_run=rules_run)


@lru_cache(maxsize=None)
def _runnable(*have: bool) -> tuple:
    """``(rule ids, rules)`` a context can run that has (``have``) the
    translation, the memory and the directory a rule may require."""
    available = {name for name, held in
                 zip(("translation", "memory", "directory"), have) if held}
    specs = tuple(spec for spec in RULES if spec.requires <= available)
    return tuple(spec.rule_id for spec in specs), specs


def verify_translations(translations, memory=None, directory=None,
                        live_entries=None, words=None) -> VerifierReport:
    """Run the full rule-pack over installed translations, as the
    segments of one context: a report of each in turn.

    What is screened is each translation's installed ``code`` +
    ``origins`` of either translator (or the warm loader), read through
    ``words`` (the installing VM's table; left out, a private one).
    Bytes that do not decode, or a word that is not its own encoding,
    are that translation's CCH001.
    ``live_entries`` (native entry addresses of the directory's live
    translations) lets a sweep build that set once; left out, CHN001
    derives it from ``directory`` when needed.
    """
    table = WordTable() if words is None else words
    segments, unread = [], {}
    for position, translation in enumerate(translations):
        try:
            segments.append(Segment(translation.code, translation.origins,
                                    table, translation=translation))
        except UopDecodeError as error:
            unread[position] = Violation(
                rule_id="CCH001",
                message=f"translation bytes do not decode: {error}",
                entry=translation.entry, kind=translation.kind)
    report = run_rules(VerifyContext(
        memory=memory, directory=directory, live_entries=live_entries,
        words=table, segments=segments)) if segments else VerifierReport()
    report.translations_checked = len(translations)
    if report.ok and not unread:
        return report
    read = [position for position in range(len(translations))
            if position not in unread]
    for position, count in Counter(
            read[violation.segment] for violation in report.violations
    ).items():
        log.warning("%s@%#x: %d invariant violation(s)",
                    translations[position].kind,
                    translations[position].entry, count)
    report.violations = [violation for _position, violation in sorted(
        [*unread.items(), *((read[violation.segment], violation)
                            for violation in report.violations)],
        key=lambda pair: pair[0])]
    return report


def verify_translation(translation, memory=None, directory=None,
                       live_entries=None, words=None) -> VerifierReport:
    """:func:`verify_translations` of one translation."""
    return verify_translations([translation], memory, directory,
                               live_entries, words)


def verify_directory(directory,
                     memory: Optional[object] = None) -> VerifierReport:
    """Verify every live translation in a directory as one context."""
    return verify_translations(
        [translation for cache in (directory.bbt_cache, directory.sbt_cache)
         for translation in cache.translations],
        memory if memory is not None else directory.memory, directory,
        live_native_entries(directory), directory.words)
