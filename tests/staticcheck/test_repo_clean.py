"""The repo gate: ``src/repro`` lints clean and its domain validates.

This is the test CI and every future PR runs — any new violation of the
determinism/cache-purity invariants fails here with the rule ID and
location, instead of surfacing later as a flaky hypothesis failure.
"""

import tokenize
from pathlib import Path

from repro.staticcheck import (
    iter_python_files,
    lint_paths,
    rule_registry,
    validate_default_domain,
)
from repro.staticcheck.model import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def test_package_source_is_present():
    assert (PACKAGE / "__init__.py").is_file()


def test_repo_lints_clean():
    """No finding, and no suppressed finding either: a new
    ``# staticcheck: ignore`` under ``src/repro`` must come with an edit
    to this test, so every waiver is reviewed where it lands."""
    result = lint_paths([PACKAGE])
    assert result.n_files > 80, "package walk looks truncated"
    pretty = "\n".join(f.format() for f in result.sorted_findings())
    assert result.findings == [], f"invariant violations:\n{pretty}"
    waived = "\n".join(f.format() for f in result.sorted_suppressed())
    assert result.suppressed == [], f"suppressed findings:\n{waived}"


def test_suppression_markers_name_registered_rules():
    """A marker naming an id no family defines — a typo, or a deleted
    rule — silences nothing and would live on unnoticed, because the
    marker parser accepts any id.  Every ``# staticcheck: ignore[...]``
    comment under ``src/repro`` must name registered ids only; a bare
    ``ignore`` names none and stays allowed."""
    known = {entry.rule_id for entry in rule_registry()}
    stale: list[str] = []
    for path in iter_python_files([PACKAGE]):
        with tokenize.open(path) as handle:
            tokens = list(tokenize.generate_tokens(handle.readline))
        # comments only: docstrings may quote placeholder markers such
        # as ``ignore[RSxxx]``
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            named = parse_suppressions(tok.string).rule_ids()
            stale.extend(f"{path}:{tok.start[0]}: {rule_id}"
                         for rule_id in sorted(named - known))
    assert stale == [], "markers name unknown rules:\n" + "\n".join(stale)


def test_domain_definitions_validate():
    findings = validate_default_domain()
    pretty = "\n".join(f.format() for f in findings)
    assert findings == [], f"domain violations:\n{pretty}"

