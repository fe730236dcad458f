"""Concurrency rules RC001-RC003, RC005: exact findings, chains, suppression.

Each RC rule has a dedicated fixture *package* under ``fixtures/`` and
the tests pin the exact reported line, column, and message — plus the
``via`` chain where the rule emits one — so a lock-model or resolver
regression fails loudly here.  Every package is also run under the
**full** RC rule set, pinning the absence of cross-rule false positives.
"""

from pathlib import Path

import pytest

from repro.staticcheck.concurrency import (
    ALL_CONCURRENCY_RULES,
    build_lock_model,
    concurrency_rule_catalogue,
    get_concurrency_rules,
    lint_concurrency,
)
from repro.staticcheck.graph import build_call_graph

FIXTURES = Path(__file__).parent / "fixtures"


def _report(pkg, rules=ALL_CONCURRENCY_RULES):
    return lint_concurrency([str(FIXTURES / pkg)], rules=rules)


def _write_pkg(tmp_path, name, **modules):
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for mod, source in modules.items():
        (pkg / f"{mod}.py").write_text(source)
    return pkg


# --- RC001 ----------------------------------------------------------------

def test_rc001_lock_free_writers_of_guarded_attributes():
    report = _report("rc001_pkg")
    telemetry = str(FIXTURES / "rc001_pkg" / "telemetry.py")
    found = [(f.path, f.line, f.col, f.rule_id)
             for f in report.result.sorted_findings()]
    # requeue's mutator call and reset's bare assignment, nothing else:
    # the guarded writers, the __init__ seeds, and the lock attribute
    # itself all stay silent
    assert found == [
        (telemetry, 26, 8, "RC001"),
        (telemetry, 29, 8, "RC001"),
    ]
    mutator, assign = report.result.sorted_findings()
    assert mutator.message == (
        "attribute `pending` of rc001_pkg.telemetry.Telemetry is written "
        "under rc001_pkg.telemetry.Telemetry._lock elsewhere but "
        "lock-free in rc001_pkg.telemetry.Telemetry.requeue"
    )
    assert assign.message == (
        "attribute `n_events` of rc001_pkg.telemetry.Telemetry is "
        "written under rc001_pkg.telemetry.Telemetry._lock elsewhere "
        "but lock-free in rc001_pkg.telemetry.Telemetry.reset"
    )


def test_rc001_assumed_locked_helper_is_not_flagged(tmp_path):
    """The ``_evaluate_batch_locked -> _dispatch`` idiom: a private
    helper only ever entered under the lock inherits held status."""
    pkg = _write_pkg(tmp_path, "ok1_pkg", engine=(
        "import threading\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def run(self):\n"
        "        with self._lock:\n"
        "            self._bump()\n"
        "    def tick(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def _bump(self):\n"
        "        self.n += 1\n"
    ))
    report = lint_concurrency([str(pkg)])
    assert report.result.findings == []
    conc = report.stats["concurrency"]
    assert conc["assumed_locked_methods"] == 1


def test_rc001_one_lock_free_call_site_revokes_assumed_status(tmp_path):
    """The fixpoint is sound: a single unlocked path into the helper
    strips its assumed-locked status, and the write gets flagged."""
    pkg = _write_pkg(tmp_path, "bad1_pkg", engine=(
        "import threading\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def run(self):\n"
        "        with self._lock:\n"
        "            self._bump()\n"
        "    def tick(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def sneak(self):\n"
        "        self._bump()\n"
        "    def _bump(self):\n"
        "        self.n += 1\n"
    ))
    report = lint_concurrency([str(pkg)])
    assert [(f.rule_id, f.line) for f in report.result.findings] == \
        [("RC001", 15)]
    assert "_bump" in report.result.findings[0].message


# --- RC002 ----------------------------------------------------------------

def test_rc002_lock_free_call_site_reports_chain_to_entry_point():
    report = _report("rc002_pkg", rules=get_concurrency_rules(["RC002"]))
    journal = str(FIXTURES / "rc002_pkg" / "journal.py")
    orphan = str(FIXTURES / "rc002_pkg" / "orphan.py")
    site, no_owner = report.result.sorted_findings()
    assert (site.path, site.line, site.col) == (journal, 19, 8)
    assert site.message == (
        "rc002_pkg.journal.Journal._evict calls "
        "rc002_pkg.journal.Journal._append_locked without holding "
        "rc002_pkg.journal.Journal._lock"
    )
    # the chain walks back to the public entry point that reaches the
    # lock-free caller
    assert site.chain == (
        f"{journal}:16 rc002_pkg.journal.Journal.shrink -> "
        f"rc002_pkg.journal.Journal._evict",
    )
    assert (no_owner.path, no_owner.line, no_owner.col) == (orphan, 4, 0)
    assert no_owner.message == (
        "rc002_pkg.orphan._merge_locked follows the `_locked` naming "
        "convention but no owning lock could be inferred for "
        "rc002_pkg.orphan"
    )


def test_rc002_init_and_locked_named_callers_are_exempt(tmp_path):
    pkg = _write_pkg(tmp_path, "ok2_pkg", store=(
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._reset_locked()\n"
        "    def refresh(self):\n"
        "        with self._lock:\n"
        "            self._sync_locked()\n"
        "    def _sync_locked(self):\n"
        "        self._reset_locked()\n"
        "    def _reset_locked(self):\n"
        "        self.rows = []\n"
    ))
    report = lint_concurrency([str(pkg)])
    assert report.result.findings == []


# --- RC003 ----------------------------------------------------------------

def test_rc003_blocking_calls_reachable_from_async_root():
    report = _report("rc003_pkg", rules=get_concurrency_rules(["RC003"]))
    handler = str(FIXTURES / "rc003_pkg" / "handler.py")
    found = [(f.line, f.col) for f in report.result.sorted_findings()]
    assert found == [(19, 4), (20, 4), (28, 9)]
    sleep, acquire, opened = report.result.sorted_findings()
    assert sleep.message == (
        "blocking call `time.sleep(...)` (time.sleep) is reachable from "
        "async rc003_pkg.handler.handle — hand it off via "
        "run_in_executor or use the async API"
    )
    assert sleep.chain == (
        f"{handler}:14 rc003_pkg.handler.handle -> "
        f"rc003_pkg.handler._stage",
    )
    # the bare Lock.acquire() resolves through the inferred module lock
    assert "acquires inferred lock rc003_pkg.handler._LOCK" \
        in acquire.message
    assert "builtins.open" in opened.message
    assert opened.chain == (
        f"{handler}:15 rc003_pkg.handler.handle -> "
        f"rc003_pkg.handler._finish",
    )


def test_rc003_awaited_and_executor_shipped_calls_stay_silent():
    """The fixture's own `await asyncio.sleep(0)` and the lambda handed
    to run_in_executor (a nested def: deferred work) are not flagged —
    pinned by the exact finding list above, re-asserted here by count."""
    report = _report("rc003_pkg")
    assert len(report.result.findings) == 3
    assert all(f.rule_id == "RC003" for f in report.result.findings)


# --- RC005 ----------------------------------------------------------------

def test_rc005_inversion_and_reacquisition():
    report = _report("rc005_pkg", rules=get_concurrency_rules(["RC005"]))
    transfer = str(FIXTURES / "rc005_pkg" / "transfer.py")
    cycle, reacquire = report.result.sorted_findings()
    # the cycle is anchored at its first edge (debit's inner with)
    assert (cycle.path, cycle.line, cycle.col) == (transfer, 14, 17)
    assert cycle.message == (
        "lock-order cycle among "
        "{rc005_pkg.transfer.Transfer._incoming, "
        "rc005_pkg.transfer.Transfer._outgoing}: "
        "rc005_pkg.transfer.Transfer._incoming -> "
        "rc005_pkg.transfer.Transfer._outgoing "
        f"(at {transfer}:14, rc005_pkg.transfer.Transfer.debit); "
        "rc005_pkg.transfer.Transfer._outgoing -> "
        "rc005_pkg.transfer.Transfer._incoming "
        f"(at {transfer}:19, rc005_pkg.transfer.Transfer.audit_sweep) "
        "— pick one global order"
    )
    assert (reacquire.path, reacquire.line, reacquire.col) == \
        (transfer, 24, 17)
    assert reacquire.message == (
        "rc005_pkg.transfer.Transfer.reconcile re-acquires non-reentrant "
        "lock rc005_pkg.transfer.Transfer._incoming it already holds — "
        "guaranteed deadlock"
    )
    # Recount's nested RLock re-acquisition is legal and unreported
    assert not any("Recount" in f.message for f in report.result.findings)


def test_rc005_transitive_reacquisition_through_a_callee(tmp_path):
    pkg = _write_pkg(tmp_path, "bad5_pkg", drain=(
        "import threading\n"
        "class Drain:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def run(self):\n"
        "        with self._lock:\n"
        "            self.flush()\n"
        "    def flush(self):\n"
        "        with self._lock:\n"
        "            self.n = 0\n"
    ))
    report = lint_concurrency(
        [str(pkg)], rules=get_concurrency_rules(["RC005"])
    )
    assert [(f.rule_id, f.line) for f in report.result.findings] == \
        [("RC005", 8)]
    finding = report.result.findings[0]
    assert "holds" in finding.message
    assert "re-acquires it (transitively) — deadlock" in finding.message


def test_rc005_consistent_global_order_is_clean(tmp_path):
    pkg = _write_pkg(tmp_path, "ok5_pkg", transfer=(
        "import threading\n"
        "class Transfer:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "        self.n = 0\n"
        "    def debit(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                self.n += 1\n"
        "    def credit(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                self.n -= 1\n"
    ))
    report = lint_concurrency(
        [str(pkg)], rules=get_concurrency_rules(["RC005"])
    )
    assert report.result.findings == []


# --- suppression mechanics ------------------------------------------------

def test_suppression_on_the_offending_line(tmp_path):
    pkg = _write_pkg(tmp_path, "sup_pkg", counter=(
        "import threading\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n"
        "    def reset(self):\n"
        "        self.n = 0  "
        "# staticcheck: ignore[RC001] -- rebound before threads start\n"
    ))
    report = lint_concurrency([str(pkg)])
    assert report.result.findings == []
    assert report.result.suppressed_by_rule() == {"RC001": 1}
    (suppressed,) = report.result.sorted_suppressed()
    assert suppressed.line == 10


# --- the lock model -------------------------------------------------------

def test_lock_model_discovers_all_three_declaration_styles(tmp_path):
    pkg = _write_pkg(tmp_path, "locks_pkg", styles=(
        "import threading\n"
        "from dataclasses import dataclass, field\n"
        "_GLOBAL = threading.Lock()\n"
        "class Plain:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "@dataclass\n"
        "class Budget:\n"
        "    _lock: threading.Lock = field(default_factory=threading.Lock)\n"
    ))
    graph = build_call_graph([str(pkg)])
    model = build_lock_model(graph)
    assert model.module_locks["locks_pkg.styles"] == {
        "_GLOBAL": "locks_pkg.styles._GLOBAL",
    }
    assert model.class_locks["locks_pkg.styles.Plain"] == {
        "_lock": "locks_pkg.styles.Plain._lock",
    }
    assert model.class_locks["locks_pkg.styles.Budget"] == {
        "_lock": "locks_pkg.styles.Budget._lock",
    }
    assert model.lock_kinds["locks_pkg.styles.Plain._lock"] == "rlock"
    assert model.lock_kinds["locks_pkg.styles._GLOBAL"] == "lock"
    stats = model.stats()
    assert stats["locks"] == 3
    assert stats["classes_with_locks"] == 2
    assert stats["module_locks"] == 1


def test_report_carries_lock_model_stats():
    report = _report("rc001_pkg")
    conc = report.stats["concurrency"]
    assert conc["locks"] == 1
    assert conc["lock_map"] == {
        "rc001_pkg.telemetry.Telemetry":
            ["rc001_pkg.telemetry.Telemetry._lock"],
    }
    # graph resolution stats ride alongside, like the flow report
    assert report.stats["resolution_rate"] == 1.0


# --- registry -------------------------------------------------------------

def test_concurrency_rule_registry():
    ids = [r.rule_id for r in ALL_CONCURRENCY_RULES]
    assert ids == ["RC001", "RC002", "RC003", "RC005"]
    assert [r["rule"] for r in concurrency_rule_catalogue()] == ids
    assert [r.rule_id for r in get_concurrency_rules(["rc003"])] == ["RC003"]
    with pytest.raises(ValueError):
        get_concurrency_rules(["RC999"])
