"""The repo gate: ``src/repro`` lints clean and its domain validates.

This is the test CI and every future PR runs — any new violation of the
determinism/cache-purity invariants fails here with the rule ID and
location, instead of surfacing later as a flaky hypothesis failure.
"""

import tokenize
from pathlib import Path

from repro.staticcheck import (
    expected_by_rule,
    iter_python_files,
    lint_flow,
    lint_paths,
    reason_for,
    rule_registry,
    validate_default_domain,
)
from repro.staticcheck.model import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def test_package_source_is_present():
    assert (PACKAGE / "__init__.py").is_file()


def test_repo_lints_clean():
    result = lint_paths([PACKAGE])
    assert result.n_files > 80, "package walk looks truncated"
    pretty = "\n".join(f.format() for f in result.sorted_findings())
    assert result.findings == [], f"invariant violations:\n{pretty}"


def test_repo_flow_clean():
    """The interprocedural gate: RF001, RF002 and RF005 over the whole
    call graph.

    Every genuine violation must be either fixed or carry a per-line
    ``# staticcheck: ignore[RFxxx]`` with a justifying comment AND a
    reasoned row in :mod:`repro.staticcheck.waivers` — the single
    inventory this gate reads its expectations from, so the marker,
    the reason, and the pin can never drift apart.
    """
    report = lint_flow([str(PACKAGE)])
    pretty = "\n".join(f.format() for f in report.result.sorted_findings())
    assert report.result.findings == [], f"flow violations:\n{pretty}"
    assert report.result.suppressed_by_rule() == expected_by_rule("RF"), (
        "the reviewed suppression inventory changed; update "
        "repro/staticcheck/waivers.py only alongside a justified "
        "per-line ignore"
    )
    for finding in report.result.suppressed:
        assert reason_for(finding.rule_id, finding.path) is not None, (
            f"suppressed {finding.rule_id} at {finding.path}:"
            f"{finding.line} has no waiver inventory row"
        )


def test_suppression_markers_name_registered_rules():
    """A marker naming an id no family defines — a typo, or a deleted
    rule — silences nothing and would live on unnoticed, because the
    marker parser accepts any id.  Every ``# staticcheck: ignore[...]``
    comment under ``src/repro`` must name registered ids only; a bare
    ``ignore`` names none and stays allowed."""
    known = {entry.rule_id for entry in rule_registry()}
    stale: list[str] = []
    n_named = 0
    for path in iter_python_files([PACKAGE]):
        with tokenize.open(path) as handle:
            tokens = list(tokenize.generate_tokens(handle.readline))
        # comments only: docstrings quote placeholder markers such as
        # ``ignore[RFxxx]``
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            named = parse_suppressions(tok.string).rule_ids()
            n_named += len(named)
            stale.extend(f"{path}:{tok.start[0]}: {rule_id}"
                         for rule_id in sorted(named - known))
    assert stale == [], "markers name unknown rules:\n" + "\n".join(stale)
    # the scan must see at least the inventory's own markers
    assert n_named >= sum(expected_by_rule().values()), n_named


def test_repo_call_graph_resolves_most_sites():
    """The soundness caveat stays quantified: the resolver must keep
    pinning down the bulk of non-external calls or flow findings lose
    their meaning."""
    report = lint_flow([str(PACKAGE)])
    assert report.stats["resolution_rate"] > 0.6, report.stats
    assert report.stats["functions"] > 500, report.stats


def test_domain_definitions_validate():
    findings = validate_default_domain()
    pretty = "\n".join(f.format() for f in findings)
    assert findings == [], f"domain violations:\n{pretty}"

