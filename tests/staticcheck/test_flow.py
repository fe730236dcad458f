"""Flow rules RF001, RF002, RF005: exact findings, call chains,
suppression.

Each RF rule has a dedicated multi-module fixture *package* under
``fixtures/`` and the tests pin the full reported chain — the
``path:line caller -> callee`` hop sequence — not just the rule id, so
a resolver regression that silently shortens or reroutes a chain fails
loudly here.
"""

from pathlib import Path

import pytest

from repro.staticcheck.flow import (
    ALL_FLOW_RULES,
    flow_rule_catalogue,
    get_flow_rules,
    lint_flow,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _findings(pkg, rules=ALL_FLOW_RULES):
    report = lint_flow([str(FIXTURES / pkg)], rules=rules)
    return report


# --- RF001 ----------------------------------------------------------------

def test_rf001_unseeded_rng_reports_full_chain():
    report = _findings("rf001_pkg")
    assert [f.rule_id for f in report.result.findings] == ["RF001"]
    finding = report.result.findings[0]
    noise = str(FIXTURES / "rf001_pkg" / "noise.py")
    engine = str(FIXTURES / "rf001_pkg" / "engine.py")
    assert finding.path == noise
    assert (finding.line, finding.col) == (7, 11)
    assert "numpy.random.default_rng" in finding.message
    assert "no seed argument" in finding.message
    assert finding.chain == (
        f"{engine}:7 rf001_pkg.engine.evaluate -> "
        f"rf001_pkg.noise.sample_noise",
        f"{noise}:11 rf001_pkg.noise.sample_noise -> "
        f"rf001_pkg.noise._make_generator",
    )


def test_rf001_seeded_construction_passes(tmp_path):
    pkg = tmp_path / "ok_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "engine.py").write_text(
        "import numpy as np\n"
        "def evaluate(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.normal()\n"
        "def derived(base_seed, i):\n"
        "    s = base_seed + i\n"
        "    return np.random.default_rng(s).normal()\n"
    )
    report = lint_flow([str(pkg)], rules=get_flow_rules(["RF001"]))
    assert report.result.findings == []


# --- RF002 ----------------------------------------------------------------

def test_rf002_impure_cache_key_closure_reports_both_sins():
    report = _findings("rf002_pkg", rules=get_flow_rules(["RF002"]))
    hashing = str(FIXTURES / "rf002_pkg" / "hashing.py")
    request = str(FIXTURES / "rf002_pkg" / "request.py")
    found = [(f.line, f.col, f.rule_id) for f in report.result.findings]
    assert found == [(10, 4, "RF002"), (15, 11, "RF002")]
    memo_write, clock_read = report.result.findings
    assert "_MEMO" in memo_write.message
    assert memo_write.chain == (
        f"{request}:11 rf002_pkg.request.Request.cache_key -> "
        f"rf002_pkg.hashing.digest_parts",
    )
    assert "time.time" in clock_read.message
    assert clock_read.chain == (
        f"{request}:11 rf002_pkg.request.Request.cache_key -> "
        f"rf002_pkg.hashing.stamp",
    )
    assert all(f.path == hashing for f in report.result.findings)


# --- RF005 ----------------------------------------------------------------

def test_rf005_divergent_leaf_sets_flag_the_batch_twin():
    report = _findings("rf005_pkg", rules=get_flow_rules(["RF005"]))
    cost = str(FIXTURES / "rf005_pkg" / "cost.py")
    assert [f.rule_id for f in report.result.findings] == ["RF005"]
    finding = report.result.findings[0]
    assert finding.path == cost
    assert finding.line == 11           # the batch def line
    assert "scalar-only leaves: spill_outcome" in finding.message
    # the chain walks the scalar half down to the leaf the batch lost
    assert finding.chain == (
        f"{cost}:7 rf005_pkg.cost.compute_stage_cost -> "
        f"rf005_pkg.leaves.spill_outcome",
    )


def test_rf005_matching_pairs_and_non_cost_pairs_stay_silent(tmp_path):
    pkg = tmp_path / "ok5_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cost.py").write_text(
        "def gc_fraction(x):\n"
        "    return x * 0.1\n"
        "def compute_stage_cost(x):\n"
        "    return x + gc_fraction(x)\n"
        "def compute_stage_cost_batch(xs):\n"
        "    return [x + gc_fraction(x) for x in xs]\n"
        # a pair with no cost/effect leaves at all: out of scope
        "def suggest(x):\n"
        "    return x\n"
        "def suggest_batch(xs):\n"
        "    return xs\n"
    )
    report = lint_flow([str(pkg)], rules=get_flow_rules(["RF005"]))
    assert report.result.findings == []


# --- suppression mechanics ------------------------------------------------

def test_suppression_on_callee_line_silences_interprocedural_finding(tmp_path):
    """The marker lives where the finding lands — the callee's line deep
    in the helper module, not at the entry point."""
    pkg = tmp_path / "sup_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "noise.py").write_text(
        "import numpy as np\n"
        "def make_generator():\n"
        "    return np.random.default_rng()  "
        "# staticcheck: ignore[RF001] -- test fixture\n"
    )
    (pkg / "engine.py").write_text(
        "from .noise import make_generator\n"
        "def evaluate(n):\n"
        "    return make_generator().normal(size=n)\n"
    )
    report = lint_flow([str(pkg)], rules=get_flow_rules(["RF001"]))
    assert report.result.findings == []
    assert report.result.suppressed_by_rule() == {"RF001": 1}
    (suppressed,) = report.result.sorted_suppressed()
    assert suppressed.path.endswith("noise.py")
    assert suppressed.line == 3
    assert suppressed.chain != ()       # the chain survives into the audit


def test_suppression_on_entry_point_line_does_not_silence(tmp_path):
    """A waiver at the call site upstream must NOT hide the callee's
    violation — the finding belongs to the code that commits it."""
    pkg = tmp_path / "nosup_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "noise.py").write_text(
        "import numpy as np\n"
        "def make_generator():\n"
        "    return np.random.default_rng()\n"
    )
    (pkg / "engine.py").write_text(
        "from .noise import make_generator\n"
        "def evaluate(n):\n"
        "    return make_generator().normal(size=n)  "
        "# staticcheck: ignore[RF001] -- wrong place\n"
    )
    report = lint_flow([str(pkg)], rules=get_flow_rules(["RF001"]))
    assert [f.rule_id for f in report.result.findings] == ["RF001"]
    assert report.result.suppressed_by_rule() == {}


# --- registry -------------------------------------------------------------

def test_flow_rule_registry():
    ids = [r.rule_id for r in ALL_FLOW_RULES]
    assert ids == ["RF001", "RF002", "RF005"]
    assert [r["rule"] for r in flow_rule_catalogue()] == ids
    assert [r.rule_id for r in get_flow_rules(["rf005"])] == ["RF005"]
    with pytest.raises(ValueError):
        get_flow_rules(["RF999"])


def test_flow_report_carries_graph_stats():
    report = _findings("graphpkg")
    assert report.result.findings == []
    assert report.stats["resolution_rate"] >= 0.9
    assert report.stats["files"] == 4
