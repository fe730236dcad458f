"""CLI behaviour: exit codes, JSON output, rule filtering, domain toggle."""

import json
from pathlib import Path

import pytest

from repro.staticcheck.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "fixtures"


def test_clean_package_exits_zero(capsys):
    assert main([str(PACKAGE)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_fixture_exits_nonzero_with_rule_id(capsys):
    code = main(["--no-domain", str(FIXTURES / "rs001_unseeded_rng.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "RS001" in out


def test_every_fixture_fails_the_cli(capsys):
    for fixture in sorted(FIXTURES.glob("*.py")):
        assert main(["--no-domain", str(fixture)]) == 1, fixture.name
        out = capsys.readouterr().out
        assert fixture.stem[:5].upper() in out


def test_json_format_is_machine_readable(capsys):
    code = main(["--no-domain", "--format", "json",
                 str(FIXTURES / "rs004_float_eq.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["errors"] == 3
    assert {f["rule"] for f in payload["findings"]} == {"RS004"}
    assert [f["line"] for f in payload["findings"]] == [5, 6, 7]


def test_json_suppressions_carry_rule_counts_and_locations(capsys):
    """The suppression audit trail survives serialization: per-rule
    counts plus the exact silenced locations, not just an aggregate."""
    code = main(["--no-domain", "--format", "json",
                 str(FIXTURES / "rs004_float_eq.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    suppressed = payload["suppressed"]
    assert suppressed["total"] == 1
    assert suppressed["by_rule"] == {"RS004": 1}
    assert len(suppressed["locations"]) == 1
    loc = suppressed["locations"][0]
    assert loc["rule"] == "RS004"
    assert loc["path"].endswith("rs004_float_eq.py")
    assert isinstance(loc["line"], int)


def test_rule_filter(capsys):
    code = main(["--no-domain", "--rules", "RS002",
                 str(FIXTURES / "rs001_unseeded_rng.py")])
    assert code == 0
    capsys.readouterr()


def test_unknown_rule_exits_two(capsys):
    assert main(["--rules", "RS999", str(PACKAGE)]) == 2
    assert "RS999" in capsys.readouterr().err


def test_missing_path_exits_two(capsys):
    assert main(["definitely/not/a/path"]) == 2
    capsys.readouterr()


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RS001", "RS002", "RS003", "RS004", "RS005", "RS006"):
        assert rule_id in out


def test_list_rules_covers_every_family(capsys):
    """The unified registry serves both catalogues in one listing."""
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RS001", "RS006", "RD001", "RD007"):
        assert rule_id in out, rule_id
    assert "imported domain objects" in out
    assert "RF0" not in out


def test_mixed_family_rule_spec(capsys):
    """One --rules spec can name ids from several families at once: the
    RS id selects the per-file rule, the RD id narrows the domain report."""
    code = main(["--format", "json", "--rules", "RS001,RD004",
                 str(FIXTURES / "rs001_unseeded_rng.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"RS001"}
    assert main(["--rules", "RS002,RD004",
                 str(FIXTURES / "rs001_unseeded_rng.py")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("rule_id", ["RC999", "RA001", "RF004", "RC001",
                                     "RC002", "RC003", "RC005", "RF001",
                                     "RF002", "RF005"])
def test_unknown_family_rule_exits_two(capsys, rule_id):
    """An id no family defines — a typo, or a rule that was deleted —
    is a usage error, never a silently empty pass."""
    assert main(["--rules", rule_id, str(PACKAGE)]) == 2
    assert rule_id in capsys.readouterr().err


def test_domain_validation_runs_by_default(capsys):
    """Linting the clean package with domain checks on still exits 0."""
    assert main([str(PACKAGE)]) == 0
    capsys.readouterr()
