"""The array-program gate: ``src/repro`` is clean under RA001-RA006.

Same contract as the flow/concurrency gates: every genuine finding the
pass surfaced on arrival was either fixed or carries a per-line
``# staticcheck: ignore[RAxxx]`` marker backed by a reasoned row in
:mod:`repro.staticcheck.waivers` — this gate reads its expected counts
from that single inventory, so the markers, the reasons, and the pins
cannot drift apart.

The health checks pin the hot-path table's resolution and the
interpreter's coverage, because a rename that empties the hot set (or
an interpreter regression that stops producing facts) would make the
perf rules silently vacuous while the gate still shows green.
"""

from pathlib import Path

from repro.staticcheck import (
    build_call_graph,
    expected_by_rule,
    lint_arrays,
    reason_for,
    resolve_hot_functions,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def _report():
    return lint_arrays([str(PACKAGE)])


def test_repo_arrays_clean():
    report = _report()
    pretty = "\n".join(f.format() for f in report.result.sorted_findings())
    assert report.result.findings == [], f"array violations:\n{pretty}"


def test_suppressions_match_the_waiver_inventory():
    report = _report()
    assert report.result.suppressed_by_rule() == expected_by_rule("RA"), (
        "the RA suppression inventory changed; update "
        "repro/staticcheck/waivers.py only alongside a justified "
        "per-line ignore"
    )
    for finding in report.result.suppressed:
        assert reason_for(finding.rule_id, finding.path) is not None, (
            f"suppressed {finding.rule_id} at {finding.path}:"
            f"{finding.line} has no waiver inventory row"
        )


def test_hot_path_table_resolves_the_profiled_surfaces():
    graph = build_call_graph([str(PACKAGE)])
    hot, roots = resolve_hot_functions(graph)
    # every declared surface must still match a real function: a rename
    # that drops a root would quietly stop linting that phase
    assert len(roots) >= 16, sorted(roots)
    for fragment in (
        "BayesOptTuner.suggest", "SparkSimulator.run_batch",
        "compute_stage_cost_batch", "SignatureIndex.find_similar",
        "shm.encode_configs", "shm.decode_configs",
    ):
        assert any(q.endswith(fragment) for q in roots), (fragment,
                                                          sorted(roots))
    # the closure must reach well beyond the roots — the helpers the
    # hot functions call are where hidden copies actually hide
    assert len(hot) > len(roots) * 3, (len(hot), len(roots))
    phases = set(hot.values())
    assert phases == {"suggest", "evaluate", "ingest", "similarity",
                      "shm-codec"}


def test_interpreter_covers_the_package():
    report = _report()
    arr = report.stats["arrays"]
    assert arr["functions_interpreted"] > 500, arr
    assert arr["hot_functions"] >= 50, arr
    assert arr["hot_roots"] >= 16, arr
