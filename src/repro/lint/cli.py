"""``repro lint`` — the reprolint command-line front end.

Also reachable as ``make lint`` (full run: invariants + style), the
lint stage of ``make verify``; only inline-justified suppressions pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

DEFAULT_PATHS = ("src", "tests", "tools")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: "
                             "src tests tools, where present)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule IDs to run "
                             "(default: all)")
    parser.add_argument("--no-style", action="store_true",
                        help="skip the style pack (F401/E501/W191/"
                             "W291) — for running next to ruff")
    parser.add_argument("--style-only", action="store_true",
                        help="run only the style pack")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def _selected_rules(args) -> Optional[List[str]]:
    from repro.lint import all_rule_ids
    from repro.lint.rules import STYLE_RULE_IDS
    if args.rules:
        return [rid.strip() for rid in args.rules.split(",")
                if rid.strip()]
    if args.style_only:
        return list(STYLE_RULE_IDS)
    if args.no_style:
        return [rid for rid in all_rule_ids()
                if rid not in STYLE_RULE_IDS]
    return None     # all registered rules


def _default_paths() -> List[str]:
    present = [path for path in DEFAULT_PATHS if Path(path).is_dir()]
    if present:
        return present
    # fall back to linting the installed package itself
    import repro
    return [str(Path(repro.__file__).parent)]


def run_lint(args: argparse.Namespace) -> int:
    from repro.lint import RULES, LintEngine

    if args.list_rules:
        width = max(len(rid) for rid in RULES)
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            print(f"{rule_id:<{width}}  [{rule.severity:7s}] "
                  f"{rule.title}")
        return 0

    paths = args.paths or _default_paths()
    try:
        engine = LintEngine(rules=_selected_rules(args))
    except ValueError as error:
        raise SystemExit(str(error))
    report = engine.lint_paths(paths)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for violation in report.violations:
            print(violation.format())
        print(report.format().splitlines()[-1], file=sys.stderr)
    return 0 if report.ok else 1
