"""The repo's single waiver inventory.

Every ``# staticcheck: ignore[...]`` marker that silences a *genuine*
finding in ``src/repro`` must have a row here carrying the reason the
code is allowed to stay as written.  The clean-gate tests in
``test_repo_clean.py`` pin their expected-suppression counts to this
table instead of to private dicts, and the text reporter renders the
reasons as a footer — so the inventory cannot drift from either the
markers or the gates without a test failing.

A row matches a suppressed finding when the rule id is equal and the
finding's path ends with the row's ``path`` (paths are stored
repo-relative with forward slashes so the inventory is portable across
checkouts and operating systems).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Finding

__all__ = ["Waiver", "WAIVERS", "expected_by_rule", "reason_for",
           "waiver_footer"]


@dataclass(frozen=True)
class Waiver:
    """One deliberate, reasoned suppression of a genuine finding."""

    rule_id: str
    path: str                    #: repo-relative, forward slashes
    reason: str


WAIVERS: tuple[Waiver, ...] = (
    Waiver(
        "RF001", "src/repro/sparksim/rngpool.py",
        "placeholder bit generator; its state is overwritten from the "
        "pool before any draw can happen",
    ),
    Waiver(
        "RF002", "src/repro/engine/cache.py",
        "idempotent config-fingerprint memo: recomputing yields the "
        "identical value, so the benign race is harmless",
    ),
)


def _matches(waiver: Waiver, rule_id: str, path: str) -> bool:
    if waiver.rule_id != rule_id:
        return False
    normalized = path.replace("\\", "/")
    return normalized.endswith(waiver.path)


def expected_by_rule(prefix: str | None = None) -> dict[str, int]:
    """Expected suppression counts per rule id, optionally filtered to
    one family prefix (``"RF"``, ``"RC"``)."""
    out: dict[str, int] = {}
    for waiver in WAIVERS:
        if prefix is not None and not waiver.rule_id.startswith(prefix):
            continue
        out[waiver.rule_id] = out.get(waiver.rule_id, 0) + 1
    return out


def reason_for(rule_id: str, path: str) -> str | None:
    """The inventory reason covering a suppressed finding, or None."""
    for waiver in WAIVERS:
        if _matches(waiver, rule_id, path):
            return waiver.reason
    return None


def waiver_footer(suppressed: list[Finding]) -> list[str]:
    """Reporter footer lines: one per suppressed finding the inventory
    covers, rendering its reason."""
    lines: list[str] = []
    for finding in suppressed:
        reason = reason_for(finding.rule_id, finding.path)
        if reason is not None:
            lines.append(
                f"waiver {finding.rule_id} {finding.path}:{finding.line}"
                f" -- {reason}"
            )
    return lines
