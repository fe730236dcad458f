"""One declarative table of every rule the linter serves.

The rule families grew hand-rolled catalogues (per-file ``RS``, domain
``RD``), each with its own id partitioning in the CLI.  This module
folds them into a single registry so ``--list-rules`` and ``--rules``
have exactly one source of truth: a rule id is valid iff it has a
:class:`RuleEntry`, and its ``family`` says which pass runs it.

The domain validator has no rule classes (findings come straight out of
``validate_*`` helpers), so its metadata rows are declared here — the
one place the RD catalogue exists in code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rules import rule_catalogue

__all__ = [
    "RuleEntry",
    "rule_registry",
    "registry_ids",
    "partition_rule_ids",
]

#: family -> how the rule is evaluated (shown by ``--list-rules``)
FAMILY_SCOPES = {
    "per-file": None,                        # per-rule path scopes apply
    "domain": "imported domain objects (config spaces, workloads)",
}


@dataclass(frozen=True)
class RuleEntry:
    """One rule's identity and metadata, family-agnostic."""

    rule_id: str
    family: str                              # key of FAMILY_SCOPES
    severity: str                            # "error" | "warning"
    summary: str
    rationale: str = ""
    #: per-file path scope fragments (None = all files / not path-scoped)
    scope: tuple[str, ...] | None = None


#: the domain validator's findings, declared here because domain.py
#: builds Findings directly instead of defining rule classes
_DOMAIN_ROWS: tuple[RuleEntry, ...] = (
    RuleEntry(
        "RD001", "domain", "error",
        "parameter default fails its own validate()",
        "A space whose default is already invalid burns the whole "
        "tuning budget before the first real candidate.",
    ),
    RuleEntry(
        "RD002", "domain", "error",
        "unit-interval encoding does not round-trip the default",
        "Optimizers work in [0,1]^d; a lossy encode/decode silently "
        "moves every suggestion they make.",
    ),
    RuleEntry(
        "RD003", "domain", "error",
        "constraint references a parameter the space does not define",
        "A dangling constraint either never fires or rejects "
        "everything, depending on evaluation order.",
    ),
    RuleEntry(
        "RD004", "domain", "error",
        "no feasible grid corner: every low/high/default corner is "
        "denied resources on every reference cluster",
        "If not even the corners pack onto any reference cluster, the "
        "space and the constraint have drifted apart.",
    ),
    RuleEntry(
        "RD005", "domain", "warning",
        "wide numeric range (>= 100x) not log-scaled",
        "Linear encoding of a 100x span concentrates the optimizer's "
        "samples in the top decade.",
    ),
    RuleEntry(
        "RD006", "domain", "error",
        "categorical parameter with duplicate or missing-default choices",
        "Duplicate choices skew the encoding's bin widths; a default "
        "outside the choices can never round-trip.",
    ),
    RuleEntry(
        "RD007", "domain", "error",
        "workload registry entry broken (bad name, inputs, or job list)",
        "The registry is the service's submission surface; a broken "
        "entry fails at tenant-request time instead of lint time.",
    ),
)


def rule_registry() -> list[RuleEntry]:
    """Every rule of every family, in catalogue order."""
    entries: list[RuleEntry] = []
    for row in rule_catalogue():
        entries.append(RuleEntry(
            rule_id=row["id"], family="per-file",
            severity=row["severity"], summary=row["summary"],
            rationale=row["rationale"],
            scope=tuple(row["scope"]) if row["scope"] else None,
        ))
    entries.extend(_DOMAIN_ROWS)
    return entries


def registry_ids() -> dict[str, str]:
    """rule id -> family, for id validation and partitioning."""
    return {entry.rule_id: entry.family for entry in rule_registry()}


def partition_rule_ids(spec: str) -> dict[str, list[str]]:
    """Split a ``--rules`` spec into per-family id lists.

    Returns ``{family: [ids...]}`` with only the families that were
    requested; raises :class:`ValueError` naming every unknown id, so a
    typo'd rule can never be silently skipped.
    """
    families = registry_ids()
    out: dict[str, list[str]] = {}
    unknown: list[str] = []
    for raw in spec.split(","):
        rule_id = raw.strip().upper()
        if not rule_id:
            continue
        family = families.get(rule_id)
        if family is None:
            unknown.append(rule_id)
            continue
        out.setdefault(family, []).append(rule_id)
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(set(unknown)))}"
        )
    return out
