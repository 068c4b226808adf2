"""Command-line front end of ``spmdlint``.

Usage::

    python -m repro.analysis.lint src/ [tests/ ...]
    spmdlint src/ --select S3,S4
    spmdlint src/ --format json

Exit codes: 0 — clean; 1 — findings; 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .checker import Finding, iter_python_files, lint_source
from .rules import ALL_RULES, RULES_BY_ID


def collect_findings(paths: Sequence[str], rules=None) -> List[Finding]:
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError):
            continue
        findings.extend(lint_source(_normalize(filename), source, rules))
    return findings


def _normalize(path: str) -> str:
    return os.path.normpath(path).replace(os.sep, "/")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmdlint",
        description=(
            "Static checker for SPMD rank programs (rules "
            + ", ".join(RULES_BY_ID)
            + "); collective consistency is checked at run time by the "
            "sanitizer (REPRO_SANITIZE=1)."
        ),
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    rules = None
    if args.select:
        try:
            rules = [RULES_BY_ID[r.strip()] for r in args.select.split(",") if r.strip()]
        except KeyError as exc:
            parser.error(
                f"unknown rule {exc.args[0]!r}; "
                f"known: {', '.join(sorted(RULES_BY_ID))}"
            )

    findings = collect_findings(args.paths, rules)

    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "function": f.qualname,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        rule_ids = ",".join(r.id for r in (rules or ALL_RULES))
        print(f"spmdlint: {len(findings)} finding(s) [rules {rule_ids}]")

    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
