"""Incremental cache: warm reuse, precise invalidation, byte-identity.

The ≥5x warm-speedup acceptance criterion is pinned here with a
deterministic proxy instead of flaky wall-clock ratios: a fully warm run
performs **zero** ``ast.parse`` calls (the cold run does one per file,
plus the graph pass), and its rendered JSON is byte-identical to the
cold run's.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.staticcheck.concurrency import ALL_CONCURRENCY_RULES
from repro.staticcheck.flow import ALL_FLOW_RULES
from repro.staticcheck.incremental import incremental_check
from repro.staticcheck.reporter import render_json

FIXTURES = Path(__file__).parent / "fixtures"


def _make_pkg(tmp_path):
    pkg = tmp_path / "inc_pkg"
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
        "    return make_generator().normal(size=n)\n"
    )
    return pkg


def _check(pkg, cache, **kwargs):
    # per-file rules off: these tests isolate the flow/tree cache paths
    return incremental_check(
        [str(pkg)], per_file_rules=[], flow_rules=list(ALL_FLOW_RULES),
        cache_path=cache, **kwargs,
    )


def test_warm_run_reuses_everything_and_renders_identically(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    cold = _check(pkg, cache)
    assert cold.n_reanalyzed == 3
    assert not cold.tree_cached
    assert [f.rule_id for f in cold.result.findings] == ["RF001"]

    warm = _check(pkg, cache)
    assert warm.n_reanalyzed == 0
    assert warm.tree_cached
    assert warm.result.findings == cold.result.findings
    assert warm.result.suppressed == cold.result.suppressed
    cold_json = render_json(cold.result, stats=cold.stats)
    warm_json = render_json(warm.result, stats=warm.stats)
    assert warm_json == cold_json      # byte-identical, chains included


def test_warm_run_parses_nothing(tmp_path, monkeypatch):
    """The speedup proxy: zero ast.parse calls on an unchanged tree."""
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    _check(pkg, cache)

    calls = {"n": 0}
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls["n"] += 1
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    warm = _check(pkg, cache)
    assert warm.n_reanalyzed == 0
    assert calls["n"] == 0


def test_editing_one_file_reanalyzes_only_that_file(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    _check(pkg, cache)

    noise = pkg / "noise.py"
    noise.write_text(
        "import numpy as np\n"
        "def make_generator(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    after = _check(pkg, cache)
    assert after.n_reanalyzed == 1      # only noise.py re-parsed per-file
    assert not after.tree_cached        # flow pass re-ran (tree changed)
    assert after.result.findings == []  # the fix is visible immediately


def test_no_cache_escape_hatch(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    out = _check(pkg, cache, use_cache=False)
    assert out.n_reanalyzed == 3
    assert not cache.exists()           # --no-cache never writes


def test_rule_set_change_invalidates_the_signature(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    _check(pkg, cache)
    narrowed = incremental_check(
        [str(pkg)], per_file_rules=[], flow_rules=[ALL_FLOW_RULES[0]],
        cache_path=cache,
    )
    assert narrowed.n_reanalyzed == 3   # different signature: full rerun
    assert not narrowed.tree_cached


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    out = _check(pkg, cache)
    assert out.n_reanalyzed == 3
    assert [f.rule_id for f in out.result.findings] == ["RF001"]
    # and the broken file was replaced with a valid one
    json.loads(cache.read_text())


def test_cache_payload_shape_is_stable(tmp_path):
    pkg = _make_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    _check(pkg, cache)
    payload = json.loads(cache.read_text())
    assert set(payload) == {"signature", "files", "tree"}
    assert all("hash" in entry for entry in payload["files"].values())
    assert "flow" in payload["tree"]
    assert payload["tree"]["flow"]["stats"]["files"] == 3


def _make_conc_pkg(tmp_path):
    pkg = tmp_path / "conc_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "counter.py").write_text(
        "import threading\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def reset(self):\n"
        "        self.n = 0\n"
    )
    return pkg


def _conc_check(pkg, cache, **kwargs):
    return incremental_check(
        [str(pkg)], per_file_rules=[],
        concurrency_rules=list(ALL_CONCURRENCY_RULES),
        cache_path=cache, **kwargs,
    )


def test_concurrency_warm_run_parses_nothing_and_renders_identically(
        tmp_path, monkeypatch):
    pkg = _make_conc_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    cold = _conc_check(pkg, cache)
    assert [f.rule_id for f in cold.result.findings] == ["RC001"]
    assert not cold.tree_cached
    assert isinstance(cold.stats["concurrency"], dict)

    calls = {"n": 0}
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls["n"] += 1
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    warm = _conc_check(pkg, cache)
    assert warm.n_reanalyzed == 0
    assert warm.tree_cached
    assert calls["n"] == 0
    cold_json = render_json(cold.result, stats=cold.stats)
    warm_json = render_json(warm.result, stats=warm.stats)
    assert warm_json == cold_json   # lock-model stats round-trip too
    payload = json.loads(cache.read_text())
    assert set(payload) == {"signature", "files", "tree"}
    conc_section = payload["tree"]["concurrency"]
    assert set(conc_section) == {"findings", "suppressed", "stats"}
    assert conc_section["stats"]["concurrency"]["locks"] == 1


def test_concurrency_rule_set_change_invalidates_the_signature(tmp_path):
    pkg = _make_conc_pkg(tmp_path)
    cache = tmp_path / "cache.json"
    _conc_check(pkg, cache)
    narrowed = incremental_check(
        [str(pkg)], per_file_rules=[],
        concurrency_rules=[ALL_CONCURRENCY_RULES[4]],
        cache_path=cache,
    )
    assert narrowed.n_reanalyzed == 2   # different signature: full rerun
    assert not narrowed.tree_cached
    assert narrowed.result.findings == []   # RC005 alone: counter is clean


def test_flow_and_concurrency_share_one_graph_build(tmp_path, monkeypatch):
    """When both tree passes miss the cache, exactly one call graph is
    built and handed to both."""
    from repro.staticcheck import concurrency, flow, graph, incremental

    builds = {"n": 0}
    real_build = graph.build_call_graph

    def counting_build(paths):
        builds["n"] += 1
        return real_build(paths)

    for module in (incremental, flow, concurrency):
        monkeypatch.setattr(module, "build_call_graph", counting_build)
    pkg = _make_conc_pkg(tmp_path)
    out = incremental_check(
        [str(pkg)], per_file_rules=[],
        flow_rules=list(ALL_FLOW_RULES),
        concurrency_rules=list(ALL_CONCURRENCY_RULES),
        cache_path=tmp_path / "cache.json", use_cache=False,
    )
    assert builds["n"] == 1
    assert [f.rule_id for f in out.result.findings] == ["RC001"]


def test_combined_warm_run_is_byte_identical_with_zero_parses(
        tmp_path, capsys, monkeypatch):
    """The acceptance criterion, end-to-end through the CLI with both
    tree passes on: cold vs warm JSON byte-identity and zero
    ``ast.parse`` calls on the warm run."""
    from repro.staticcheck.cli import main

    monkeypatch.chdir(tmp_path)
    pkg = _make_conc_pkg(tmp_path)
    argv = ["--no-domain", "--flow", "--concurrency",
            "--format", "json", str(pkg)]
    assert main(argv) == 1
    cold = capsys.readouterr().out

    calls = {"n": 0}
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls["n"] += 1
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert main(argv) == 1
    warm = capsys.readouterr().out
    assert warm == cold
    assert calls["n"] == 0
    payload = json.loads(warm)
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"RC001"}


def test_cli_cold_and_warm_json_byte_identical(tmp_path, capsys, monkeypatch):
    """End-to-end through the CLI: the acceptance criterion itself."""
    from repro.staticcheck.cli import main

    monkeypatch.chdir(tmp_path)
    pkg = _make_pkg(tmp_path)
    argv = ["--no-domain", "--flow", "--format", "json", str(pkg)]
    assert main(argv) == 1
    cold = capsys.readouterr().out
    assert main(argv) == 1
    warm = capsys.readouterr().out
    assert warm == cold
    payload = json.loads(warm)
    assert payload["findings"][0]["rule"] == "RF001"
    assert payload["findings"][0]["chain"]  # chains survive the round-trip
    assert (tmp_path / ".staticcheck_cache.json").exists()


def test_cli_concurrency_cold_and_warm_json_byte_identical(
        tmp_path, capsys, monkeypatch):
    from repro.staticcheck.cli import main

    monkeypatch.chdir(tmp_path)
    pkg = _make_conc_pkg(tmp_path)
    argv = ["--no-domain", "--concurrency", "--format", "json", str(pkg)]
    assert main(argv) == 1
    cold = capsys.readouterr().out
    assert main(argv) == 1
    warm = capsys.readouterr().out
    assert warm == cold
    payload = json.loads(warm)
    assert payload["findings"][0]["rule"] == "RC001"
    assert payload["call_graph"]["concurrency"]["locks"] == 1
