"""Render lint results as human-readable text or machine-readable JSON.

Suppressed findings are first-class in the JSON payload: per-rule counts
plus the exact silenced locations, not just an aggregate number — a
suppression is an audit trail, and an audit trail needs the *where*.
"""

from __future__ import annotations

import json

from .model import LintResult, Severity

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult) -> str:
    """One line per finding plus a summary, ruff/flake8-style.

    Findings are stably sorted by (path, line, rule).
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
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
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
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
