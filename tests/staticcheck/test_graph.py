"""Call-graph builder: module naming, edge resolution, stats.

The acceptance bar lives here: the synthetic ``graphpkg`` fixture
exercises every supported resolution path (imports, self-dispatch on
slotted classes, inheritance, attribute types, annotated params, typed
locals, super(), classmethod factories) and the builder must resolve at
least 90% of its non-external call sites.
"""

from pathlib import Path

import pytest

from repro.staticcheck.graph import build_call_graph, module_name_for

FIXTURES = Path(__file__).parent / "fixtures"
GRAPHPKG = FIXTURES / "graphpkg"


@pytest.fixture(scope="module")
def graph():
    return build_call_graph([GRAPHPKG])


def test_module_names_anchor_at_topmost_package():
    assert module_name_for(GRAPHPKG / "util.py") == "graphpkg.util"
    assert module_name_for(GRAPHPKG / "__init__.py") == "graphpkg"
    repo_root = Path(__file__).resolve().parents[2]
    assert module_name_for(
        repo_root / "src" / "repro" / "engine" / "engine.py"
    ) == "repro.engine.engine"


def test_fixture_package_resolution_rate_meets_the_bar(graph):
    stats = graph.resolution_stats()
    assert stats["resolution_rate"] >= 0.90, stats
    assert stats["files"] == 4
    assert stats["unresolved"] == 0, [
        (s.caller, s.text) for s in graph.unresolved_sites()
    ]


def _edges(graph, caller):
    return {s.callee for s in graph.sites_of(caller) if s.kind == "internal"}


def test_bare_name_and_import_resolution(graph):
    assert "graphpkg.util.clamp" in _edges(graph, "graphpkg.util.scale")
    # relative import: models.py pulls clamp from .util
    assert "graphpkg.util.clamp" in _edges(
        graph, "graphpkg.models.Base.__init__"
    )


def test_self_dispatch_prefers_the_subclass_override(graph):
    # Base.ping calls self.describe() — resolved against Base itself
    # (per-class static dispatch, not a virtual call)
    assert "graphpkg.models.Base.describe" in _edges(
        graph, "graphpkg.models.Base.ping"
    )


def test_super_call_skips_the_defining_class(graph):
    assert "graphpkg.models.Base.describe" in _edges(
        graph, "graphpkg.models.Impl.bump"
    )


def test_classmethod_cls_call_resolves_to_inherited_init(graph):
    # Impl has no __init__; cls(0.5) lands on Base.__init__ via the MRO
    assert "graphpkg.models.Base.__init__" in _edges(
        graph, "graphpkg.models.Impl.fresh"
    )


def test_attr_types_inferred_from_init_assignments(graph):
    service = graph.classes["graphpkg.service.Service"]
    assert service.attr_types["impl"] == "graphpkg.models.Impl"
    # classmethod-factory heuristic: Impl.fresh() yields an Impl
    assert service.attr_types["spare"] == "graphpkg.models.Impl"
    assert "graphpkg.models.Impl.describe" not in _edges(
        graph, "graphpkg.service.Service.__init__"
    )


def test_attr_receiver_dispatch(graph):
    edges = _edges(graph, "graphpkg.service.Service.tick")
    assert "graphpkg.models.Base.ping" in edges        # self.impl.ping()
    assert "graphpkg.models.Impl.bump" in edges        # self.spare.bump()


def test_annotated_param_receiver_dispatch(graph):
    assert "graphpkg.models.Base.ping" in _edges(
        graph, "graphpkg.service.Service.renorm"
    )
    drive_edges = _edges(graph, "graphpkg.service.drive")
    assert "graphpkg.service.Service.tick" in drive_edges
    assert "graphpkg.models.Impl.bump" in drive_edges  # typed local


def test_builtins_classify_external_not_unresolved(graph):
    base_init = graph.sites_of("graphpkg.models.Base.__init__")
    # clamp's max/min usage lives in util; Base.__init__ only calls clamp
    util_clamp = graph.sites_of("graphpkg.util.clamp")
    externals = {s.external for s in util_clamp if s.kind == "external"}
    assert "builtins.max" in externals
    assert "builtins.min" in externals
    assert all(s.kind != "unresolved" for s in base_init + util_clamp)


def test_closure_and_chain_rendering(graph):
    closure = graph.closure(["graphpkg.service.drive"])
    assert "graphpkg.util.clamp" in closure
    parents = graph.reach_parents(["graphpkg.service.drive"])
    chain = graph.chain_to(parents, "graphpkg.util.combine")
    assert len(chain) == 2
    assert chain[0].endswith(
        "graphpkg.service.drive -> graphpkg.service.Service.tick"
    )
    assert chain[1].endswith(
        "graphpkg.service.Service.tick -> graphpkg.util.combine"
    )
    # hops carry clickable path:line prefixes
    assert all(":" in hop.split(" ")[0] for hop in chain)


def test_syntax_error_files_are_skipped_not_fatal(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    graph = build_call_graph([bad])
    assert graph.resolution_stats()["files"] == 0
