"""``python -m repro.staticcheck`` — lint the repo's invariants.

Usage::

    python -m repro.staticcheck                  # lint src/repro + domain
    python -m repro.staticcheck --flow           # + RF001, RF002, RF005
    python -m repro.staticcheck --concurrency    # + RC001-RC003, RC005
    python -m repro.staticcheck src/repro        # explicit paths
    python -m repro.staticcheck --format json path/to/file.py
    python -m repro.staticcheck --list-rules
    python -m repro.staticcheck --rules RS001,RF002,RC001 src/repro
    python -m repro.staticcheck --no-domain tests/staticcheck/fixtures
    python -m repro.staticcheck --no-cache       # bypass the warm cache

Rule ids come from one registry (:mod:`repro.staticcheck.registry`):
``RS`` per-file, ``RD`` domain, ``RF`` flow, ``RC`` concurrency.  Naming
an ``RF``/``RC`` id under ``--rules`` implicitly enables that pass;
naming ``RD`` ids narrows the domain report to them.

Runs are incremental by default: per-file findings are cached in
``.staticcheck_cache.json`` keyed on content hashes (the flow, domain,
and concurrency passes on a whole-tree hash), so an unchanged
tree re-renders without re-parsing anything.  ``--no-cache`` forces a
full re-analysis.

Exit codes: 0 clean, 1 findings, 2 usage / IO error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .concurrency import get_concurrency_rules
from .flow import get_flow_rules
from .incremental import CACHE_FILE, incremental_check
from .registry import FAMILY_SCOPES, partition_rule_ids, rule_registry
from .reporter import render_json, render_text
from .rules import get_rules

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description=(
            "AST invariant linter + config-space validator for the repro "
            "package: determinism, cache-key purity, and domain sanity. "
            "--flow adds the interprocedural pass (seed provenance, "
            "cache-purity closure, exception flow, scalar/batch "
            "divergence); --concurrency adds the lock-guard/async/"
            "lock-order pass — both with call-chain traces."
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
        help=(
            "comma-separated rule IDs to run (default: all); RF/RC ids "
            "implicitly enable the flow/concurrency pass"
        ),
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the interprocedural RF rules over the call graph",
    )
    parser.add_argument(
        "--concurrency", action="store_true",
        help=(
            "also run the RC concurrency rules (lock-guard inference, "
            "_locked reachability, async blocking calls, lock-order "
            "cycles)"
        ),
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
    parser.add_argument(
        "--no-cache", action="store_true",
        help=f"re-analyze everything, ignoring {CACHE_FILE}",
    )
    parser.add_argument(
        "--cache-file", default=CACHE_FILE, metavar="PATH",
        help=f"incremental cache location (default: {CACHE_FILE})",
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
            flow_ids = by_family.get("flow", [])
            conc_ids = by_family.get("concurrency", [])
            domain_ids = by_family.get("domain", [])
            rules = get_rules(per_file_ids) if per_file_ids else []
            flow_rules = (get_flow_rules(flow_ids) if flow_ids
                          else (get_flow_rules() if args.flow else None))
            conc_rules = (
                get_concurrency_rules(conc_ids) if conc_ids
                else (get_concurrency_rules() if args.concurrency else None)
            )
        else:
            rules = get_rules()
            flow_rules = get_flow_rules() if args.flow else None
            conc_rules = get_concurrency_rules() if args.concurrency else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths = args.paths or _default_paths()
    try:
        outcome = incremental_check(
            paths,
            per_file_rules=rules,
            flow_rules=flow_rules,
            concurrency_rules=conc_rules,
            respect_scopes=not args.ignore_scopes,
            run_domain=not args.no_domain,
            cache_path=args.cache_file,
            use_cache=not args.no_cache,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = outcome.result
    if domain_ids:
        # an explicit RD subset narrows the domain report; the cache
        # stores the full validator output, so filter at render time
        keep = set(domain_ids)
        result.findings = [
            f for f in result.findings
            if not f.rule_id.startswith("RD") or f.rule_id in keep
        ]
    if args.format == "json":
        print(render_json(result, stats=outcome.stats))
    else:
        print(render_text(result, stats=outcome.stats))
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
