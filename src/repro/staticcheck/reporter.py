"""Render lint results as human-readable text or machine-readable JSON.

Both renderers accept the optional call-graph ``stats`` the flow pass
produces, so a ``--flow`` report always states how much of the call
surface was actually resolved (see the soundness caveat in
:mod:`repro.staticcheck.flow`).

Suppressed findings are first-class in the JSON payload: per-rule counts
plus the exact silenced locations, not just an aggregate number — a
suppression is an audit trail, and an audit trail needs the *where*.
"""

from __future__ import annotations

import json

from .model import LintResult, Severity
from .waivers import reason_for, waiver_footer

__all__ = ["render_text", "render_json"]


def _stats_line(stats: dict[str, object]) -> str:
    rate = float(stats.get("resolution_rate", 0.0))
    return (
        f"call graph: {stats.get('functions', 0)} function(s), "
        f"{stats.get('call_sites', 0)} call site(s), "
        f"{rate:.1%} resolved ({stats.get('unresolved', 0)} unresolved)"
    )


def render_text(result: LintResult, verbose: bool = False,
                stats: dict[str, object] | None = None) -> str:
    """One line per finding plus a summary, ruff/flake8-style.

    Findings are stably sorted by (path, line, rule); interprocedural
    findings carry their ``via`` call-chain lines.
    """
    lines = [finding.format() for finding in result.sorted_findings()]
    n_err = len(result.errors)
    n_warn = len(result.findings) - n_err
    summary = (
        f"checked {result.n_files} file(s): "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    if result.n_suppressed:
        by_rule = ", ".join(
            f"{rule} x{count}"
            for rule, count in result.suppressed_by_rule().items()
        )
        summary += f", {result.n_suppressed} suppressed ({by_rule})"
    if result.clean:
        summary += " — clean"
    lines.append(summary)
    if stats is not None:
        lines.append(_stats_line(stats))
    # inventory-backed suppressions render their reasons — the audit
    # trail travels with the report, not just with the gate tests
    lines.extend(waiver_footer(result.sorted_suppressed()))
    return "\n".join(lines)


def render_json(result: LintResult,
                stats: dict[str, object] | None = None) -> str:
    payload: dict[str, object] = {
        "clean": result.clean,
        "files_checked": result.n_files,
        "errors": len(result.errors),
        "warnings": sum(
            1 for f in result.findings if f.severity is Severity.WARNING
        ),
        "findings": [f.to_dict() for f in result.sorted_findings()],
        "suppressed": {
            "total": result.n_suppressed,
            "by_rule": result.suppressed_by_rule(),
            "locations": [f.to_dict() for f in result.sorted_suppressed()],
            "waivers": [
                {
                    "rule": f.rule_id,
                    "path": f.path,
                    "line": f.line,
                    "reason": reason,
                }
                for f in result.sorted_suppressed()
                if (reason := reason_for(f.rule_id, f.path)) is not None
            ],
        },
    }
    if stats is not None:
        payload["call_graph"] = stats
    return json.dumps(payload, indent=2, sort_keys=True)
