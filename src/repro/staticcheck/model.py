"""Core data model of the invariant linter.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintResult` aggregates the findings of a run together with the
bookkeeping (files checked, findings silenced by suppressions) that the
reporters and the CLI exit code are computed from.

Suppressions are per-line markers of the form::

    runtime = time.time()   # staticcheck: ignore[RS002] -- replaying a log

``ignore[RS002,RS004]`` silences several rules on one line and a bare
``ignore`` silences every rule on that line.  The runner counts what it
silenced, so a report always says how many findings were waved through.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Severity",
    "Finding",
    "LintResult",
    "Suppressions",
    "parse_suppressions",
]


class Severity(Enum):
    """How bad a finding is; errors gate CI, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        """Stable report order: (path, line, rule), then the tie-breakers."""
        return (self.path, self.line, self.rule_id, self.col, self.message)


@dataclass
class LintResult:
    """Everything one linter run produced.

    Suppressed findings are kept as full :class:`Finding` records (not a
    bare count) so reports can say *which* rule was waved through
    *where* — an aggregate count alone hides exactly the audit trail a
    suppression is supposed to leave.
    """

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def n_suppressed(self) -> int:
        return len(self.suppressed)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def clean(self) -> bool:
        return not self.findings

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.n_files += other.n_files
        self.suppressed.extend(other.suppressed)

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def sorted_suppressed(self) -> list[Finding]:
        return sorted(self.suppressed, key=Finding.sort_key)

    def suppressed_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.suppressed:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


#: ``# staticcheck: ignore`` or ``# staticcheck: ignore[RS001,RS002]``
_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[\s*([A-Za-z0-9_,\s]+?)\s*\])?"
)


class Suppressions:
    """Per-line suppression markers parsed from one source file."""

    def __init__(self, by_line: dict[int, frozenset[str]]):
        self._by_line = by_line

    def silences(self, line: int, rule_id: str) -> bool:
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return "*" in rules or rule_id in rules

    def rule_ids(self) -> frozenset[str]:
        """Every rule id the markers name; a bare ignore names none."""
        return frozenset().union(*self._by_line.values()) - {"*"}

    def __len__(self) -> int:
        return len(self._by_line)


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``# staticcheck: ignore[...]`` markers, keyed by line number."""
    by_line: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "staticcheck" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        spec = match.group(1)
        if spec is None:
            by_line[lineno] = frozenset({"*"})
        else:
            rules = frozenset(
                part.strip().upper() for part in spec.split(",") if part.strip()
            )
            by_line[lineno] = rules or frozenset({"*"})
    return Suppressions(by_line)
