"""``python -m repro.staticcheck`` — lint the repo's invariants.

Usage::

    python -m repro.staticcheck                  # lint src/repro + domain
    python -m repro.staticcheck src/repro        # explicit paths
    python -m repro.staticcheck --format json path/to/file.py
    python -m repro.staticcheck --list-rules
    python -m repro.staticcheck --rules RS001,RD004 src/repro
    python -m repro.staticcheck --no-domain tests/staticcheck/fixtures

Rule ids come from one registry (:mod:`repro.staticcheck.registry`):
``RS`` per-file, ``RD`` domain.  Naming ``RD`` ids under ``--rules``
narrows the domain report to them; an id no family defines exits 2.

Exit codes: 0 clean, 1 findings, 2 usage / IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import Finding
from .registry import FAMILY_SCOPES, partition_rule_ids, rule_registry
from .reporter import render_json, render_text
from .rules import get_rules
from .runner import lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description=(
            "AST invariant linter + config-space validator for the repro "
            "package: determinism, cache-key purity, and domain sanity."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro if it exists)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the full rule catalogue (every family) and exit",
    )
    parser.add_argument(
        "--no-domain", action="store_true",
        help="skip the config-space/workload domain validator",
    )
    parser.add_argument(
        "--ignore-scopes", action="store_true",
        help="apply every rule to every file, ignoring path scopes",
    )
    return parser


def _default_paths() -> list[str]:
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [str(candidate)]
    # Fall back to the installed package location (running from elsewhere).
    return [str(Path(__file__).resolve().parent.parent)]


def _print_catalogue() -> None:
    for entry in rule_registry():
        print(f"{entry.rule_id}  [{entry.severity}]  {entry.summary}")
        if entry.scope:
            scope = ", ".join(entry.scope)
        else:
            scope = FAMILY_SCOPES.get(entry.family) or "all files"
        print(f"       scope: {scope}")
        print(f"       {entry.rationale}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalogue()
        return 0
    domain_ids: list[str] = []
    try:
        if args.rules:
            by_family = partition_rule_ids(args.rules)
            per_file_ids = by_family.get("per-file", [])
            domain_ids = by_family.get("domain", [])
            rules = get_rules(per_file_ids) if per_file_ids else []
        else:
            rules = get_rules()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths = args.paths or _default_paths()
    try:
        result = lint_paths(paths, rules=rules,
                            respect_scopes=not args.ignore_scopes)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.no_domain:
        from .domain import validate_default_domain

        keep = set(domain_ids)
        # an explicit RD subset narrows the domain report
        result.findings.extend(f for f in validate_default_domain()
                               if not keep or f.rule_id in keep)

    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
