"""Array rules RA001-RA006: exact findings, chains, hot paths, domain.

Each RA rule has a dedicated fixture package under ``fixtures/`` and
the tests pin exact (line, col) positions and message content — the
inferred shapes and dtypes appear verbatim in the messages, so an
interpreter regression that degrades inference changes the report and
fails here.  ``ra003_pkg`` nests its module as ``engine/shm.py`` so its
qnames suffix-match the hot-path table and the findings carry chains.
"""

from pathlib import Path

import pytest

from repro.staticcheck.arrays import (
    ALL_ARRAY_RULES,
    AV,
    _broadcast,
    _matmul_shape,
    _merge,
    _pair_dtype,
    array_rule_catalogue,
    get_array_rules,
    lint_arrays,
)
from repro.staticcheck.graph import build_call_graph
from repro.staticcheck.hotpaths import HOT_PATHS, resolve_hot_functions
from repro.staticcheck.model import Severity

FIXTURES = Path(__file__).parent / "fixtures"


def _report(pkg, rules=ALL_ARRAY_RULES):
    return lint_arrays([str(FIXTURES / pkg)], rules=rules)


# --- the abstract domain --------------------------------------------------

def test_broadcast_symbolic_dims_never_conflict():
    shape, conflict = _broadcast((3, "n"), ("m",))
    assert conflict is None
    assert shape == (3, "?")


def test_broadcast_int_conflict_is_reported():
    shape, conflict = _broadcast((3, 8), (4,))
    assert conflict == (8, 4)


def test_broadcast_ones_expand():
    shape, conflict = _broadcast((5, 1), (1, 7))
    assert conflict is None
    assert shape == (5, 7)


def test_matmul_shapes():
    assert _matmul_shape((3, 8), (8, 2)) == ((3, 2), None)
    assert _matmul_shape((3, 8), (5, 2)) == ((3, 2), (8, 5))
    assert _matmul_shape((8,), (8, 2)) == ((2,), None)
    assert _matmul_shape((3, 8), (8,)) == ((3,), None)
    assert _matmul_shape((8,), (8,)) == ((), None)


def test_pair_dtype_weak_scalars_follow_nep50():
    assert _pair_dtype("float64", "weak-int") == "float64"
    assert _pair_dtype("int64", "weak-float") == "float64"
    assert _pair_dtype("float32", "weak-float") == "float32"
    assert _pair_dtype("float32", "float64") == "float64"


def test_merge_degrades_disagreeing_dims():
    a = AV("array", (3, 8), "float64")
    b = AV("array", (3, 9), "float64")
    merged = _merge(a, b)
    assert merged.shape == (3, "?")
    assert merged.dtype == "float64"
    assert _merge(a, AV("int")).kind == "unknown"


# --- RA001 ----------------------------------------------------------------

def test_ra001_exact_findings():
    report = _report("ra001_pkg")
    kernel = str(FIXTURES / "ra001_pkg" / "kernel.py")
    rows = [
        (f.path, f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    assert rows == [
        (kernel, 7, 11, "RA001"),
        (kernel, 11, 11, "RA001"),
        (kernel, 16, 9, "RA001"),
        (kernel, 17, 11, "RA001"),
        (kernel, 23, 11, "RA001"),
        (kernel, 27, 11, "RA001"),
    ]
    messages = [f.message for f in report.result.findings]
    assert "dtype 'float32' narrows the float64 bit-identity" in messages[0]
    assert "platform-dependent dtype 'int_'" in messages[1]
    assert "dtype 'float32' narrows" in messages[2]
    assert ("mixed-precision operation (float64 with float32) promotes "
            "silently to float64") in messages[3]
    assert ("true division of integer operands (int64 / int64) yields "
            "float64 implicitly") in messages[4]
    assert all(f.severity is Severity.ERROR for f in report.result.findings)


def test_ra001_scoped_out_inside_repro_package(tmp_path):
    # the same float32 literal inside a repro module that is NOT in the
    # bit-identity scope must not fire
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "reporting.py").write_text(
        "import numpy as np\n"
        "def render(n: int):\n"
        "    return np.zeros(n, dtype=np.float32)\n"
    )
    report = lint_arrays([str(pkg)])
    assert report.result.findings == []


# --- RA002 ----------------------------------------------------------------

def test_ra002_exact_findings():
    report = _report("ra002_pkg")
    shapes = str(FIXTURES / "ra002_pkg" / "shapes.py")
    rows = [
        (f.path, f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    assert rows == [
        (shapes, 9, 11, "RA002"),
        (shapes, 14, 11, "RA002"),
        (shapes, 20, 11, "RA002"),
    ]
    messages = [f.message for f in report.result.findings]
    assert ("incompatible shapes (3, 8) and (4,): dimension 8 vs 4 "
            "cannot broadcast") in messages[0]
    assert "axis=2 out of range for inferred shape (3, 8) (rank 2)" \
        in messages[1]
    assert "matmul of (3, 8) @ (5, 2): inner dimensions 8 and 5 differ" \
        in messages[2]


# --- RA003 ----------------------------------------------------------------

def test_ra003_hot_helpers_carry_chains():
    report = _report("ra003_pkg")
    shm = str(FIXTURES / "ra003_pkg" / "engine" / "shm.py")
    rows = [
        (f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    assert rows == [
        (12, 11, "RA003"),
        (13, 11, "RA003"),
        (17, 11, "RA003"),
        (23, 17, "RA003"),
    ]
    flatten, recopy, matmul, fancy = report.result.findings
    assert "ndarray.flatten() always copies" in flatten.message
    assert flatten.chain == (
        f"{shm}:24 ra003_pkg.engine.shm.decode_configs -> "
        f"ra003_pkg.engine.shm._reduce",
    )
    assert "np.array() over an existing ndarray" in recopy.message
    assert recopy.chain == flatten.chain
    assert "non-contiguous view" in matmul.message
    assert matmul.chain == (
        f"{shm}:25 ra003_pkg.engine.shm.decode_configs -> "
        f"ra003_pkg.engine.shm._project",
    )
    # the root function's own finding needs no chain
    assert "fancy indexing" in fancy.message
    assert fancy.chain == ()


def test_ra003_hot_closure_resolves_table_root():
    graph = build_call_graph([str(FIXTURES / "ra003_pkg")])
    hot, roots = resolve_hot_functions(graph)
    assert roots == {"ra003_pkg.engine.shm.decode_configs"}
    assert set(hot) == {
        "ra003_pkg.engine.shm.decode_configs",
        "ra003_pkg.engine.shm._reduce",
        "ra003_pkg.engine.shm._project",
    }
    assert hot["ra003_pkg.engine.shm._reduce"] == "shm-codec"


# --- RA004 ----------------------------------------------------------------

def test_ra004_exact_findings():
    report = _report("ra004_pkg")
    loops = str(FIXTURES / "ra004_pkg" / "loops.py")
    rows = [
        (f.path, f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    assert rows == [
        (loops, 8, 4, "RA004"),
        (loops, 14, 20, "RA004"),
        (loops, 20, 19, "RA004"),
        (loops, 28, 11, "RA004"),
    ]
    messages = [f.message for f in report.result.findings]
    assert "python-level loop over ndarray" in messages[0]
    assert "comprehension over ndarray" in messages[1]
    assert ".item() per element inside a loop" in messages[2]
    assert "np.array() over the list 'parts' grown by .append()" \
        in messages[3]


# --- RA005 ----------------------------------------------------------------

def test_ra005_exact_findings_and_negative_case():
    report = _report("ra005_pkg")
    alloc = str(FIXTURES / "ra005_pkg" / "alloc.py")
    rows = [
        (f.path, f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    # per_step's np.full(4, float(i)) is loop-variant: no third finding
    assert rows == [
        (alloc, 9, 18, "RA005"),
        (alloc, 17, 14, "RA005"),
    ]
    hoist, growth = report.result.findings
    assert "np.zeros(...) has no loop-carried operand" in hoist.message
    assert "concatenate onto its own accumulator 'acc'" in growth.message
    assert "grows quadratically" in growth.message


# --- RA006 ----------------------------------------------------------------

def test_ra006_exact_findings():
    report = _report("ra006_pkg")
    locked = str(FIXTURES / "ra006_pkg" / "locked.py")
    rows = [
        (f.path, f.line, f.col, f.rule_id) for f in report.result.findings
    ]
    assert rows == [
        (locked, 15, 19, "RA006"),
        (locked, 19, 17, "RA006"),
    ]
    argsort, io = report.result.findings
    assert "expensive call numpy.argsort while holding " \
        "ra006_pkg.locked.Index._lock" in argsort.message
    assert "expensive call builtins.open (blocking IO) while holding" \
        in io.message


# --- suppressions, driver, catalogue --------------------------------------

def test_ra_suppression_marker_silences_a_finding(tmp_path):
    pkg = tmp_path / "sup_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import numpy as np\n"
        "def weights(n: int):\n"
        "    return np.zeros(n, dtype=np.float32)"
        "  # staticcheck: ignore[RA001] -- fixture\n"
    )
    report = lint_arrays([str(pkg)])
    assert report.result.findings == []
    assert [f.rule_id for f in report.result.suppressed] == ["RA001"]


def test_rule_subset_runs_only_requested_ids():
    report = _report("ra001_pkg", rules=get_array_rules(["RA002"]))
    assert report.result.findings == []


def test_get_array_rules_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown array rule id"):
        get_array_rules(["RA001", "RA999"])


def test_catalogue_covers_all_rules_with_rationales():
    rows = array_rule_catalogue()
    assert [r["rule"] for r in rows] == [
        "RA001", "RA002", "RA003", "RA004", "RA005", "RA006",
    ]
    assert all(r["summary"] and r["rationale"] for r in rows)
    assert rows[0]["severity"] == "error"
    assert rows[2]["severity"] == "warning"


def test_stats_report_interpreter_coverage():
    report = _report("ra003_pkg")
    arr = report.stats["arrays"]
    assert arr["functions_interpreted"] == 3
    assert arr["hot_functions"] == 3
    assert arr["hot_roots"] == 1
    assert arr["facts"] == 4
    assert report.stats["resolution_rate"] == 1.0


def test_hot_path_table_is_well_formed():
    phases = [entry.phase for entry in HOT_PATHS]
    assert phases == ["suggest", "evaluate", "ingest", "similarity",
                      "shm-codec"]
    for entry in HOT_PATHS:
        assert entry.roots and entry.reason
