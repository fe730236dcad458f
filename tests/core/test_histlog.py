"""Tests for the append-only history log and its HistoryStore view."""

import numpy as np
import pytest

from repro.config import spark_core_space
from repro.core import ExecutionRecord, HistoryLog, HistoryStore
from repro.core.histlog import readonly_signature


def _record(i: int, tenant: str = "t1", label: str = "wc") -> ExecutionRecord:
    return ExecutionRecord(
        record_id=i, tenant=tenant, workload_label=label,
        input_mb=1000.0 + i, cluster="4x m5.xlarge (aws)",
        config=spark_core_space().default_configuration(),
        runtime_s=100.0 + i, success=i % 5 != 3,
        signature=np.full(8, float(i)), timestamp=i,
    )


class _LegacyListStore:
    """The behaviour contract: the original list-backed store."""

    def __init__(self):
        self.records = []

    def append_new(self, **kw):
        rec = ExecutionRecord(record_id=len(self.records),
                              timestamp=len(self.records), **kw)
        self.records.append(rec)
        return rec


class TestHistoryLogBasics:
    def test_append_order_and_ids(self):
        log = HistoryLog()
        for i in range(10):
            log.append_new(
                tenant="t1", workload_label="wc", input_mb=100.0,
                cluster="c", config=spark_core_space().default_configuration(),
                runtime_s=float(i), success=True, signature=np.ones(3),
            )
        snap = log.snapshot()
        assert [r.record_id for r in snap] == list(range(10))
        assert [r.timestamp for r in snap] == list(range(10))
        assert len(log) == 10

    def test_round_trip_equals_in_memory_store(self):
        """The log answers record-for-record like the list-backed store."""
        log = HistoryLog()
        legacy = _LegacyListStore()
        rng = np.random.default_rng(0)
        for i in range(25):
            kw = dict(
                tenant=f"t{i % 3}", workload_label=f"w{i % 4}",
                input_mb=float(100 + i), cluster="c",
                config=spark_core_space().default_configuration(),
                runtime_s=float(rng.uniform(10, 100)), success=bool(i % 7),
                signature=rng.normal(size=6),
            )
            log.append_new(**kw)
            legacy.append_new(**kw)
        for got, want in zip(log.snapshot(), legacy.records):
            assert got.record_id == want.record_id
            assert got.key == want.key
            assert got.runtime_s == want.runtime_s
            assert got.success == want.success
            np.testing.assert_array_equal(got.signature, want.signature)

    def test_add_advances_id_and_clock(self):
        """Loaded records must never collide with later appends."""
        log = HistoryLog()
        log.append(_record(41))
        rec = log.append_new(
            tenant="t2", workload_label="pr", input_mb=1.0, cluster="c",
            config=spark_core_space().default_configuration(),
            runtime_s=1.0, success=True, signature=np.ones(2),
        )
        assert rec.record_id == 42
        assert rec.timestamp == 42

    def test_snapshot_is_immutable_and_cached(self):
        log = HistoryLog()
        log.append(_record(0))
        s1 = log.snapshot()
        log.append(_record(1))
        s2 = log.snapshot()
        assert s1 is not s2
        assert len(s1) == 1 and len(s2) == 2  # old snapshot unaffected
        with pytest.raises(TypeError):
            s2[0] = None

    def test_signatures_stored_read_only(self):
        log = HistoryLog()
        sig = np.ones(4)
        rec = log.append_new(
            tenant="t", workload_label="w", input_mb=1.0, cluster="c",
            config=spark_core_space().default_configuration(),
            runtime_s=1.0, success=True, signature=sig,
        )
        with pytest.raises(ValueError):
            rec.signature[0] = 99.0
        sig[0] = 99.0                        # caller mutation is harmless
        assert rec.signature[0] == 1.0

    def test_readonly_signature_copies(self):
        src = np.arange(3.0)
        out = readonly_signature(src)
        src[0] = 42.0
        assert out[0] == 0.0
        assert not out.flags.writeable


class TestHistoryStoreView:
    def test_view_shares_one_log(self):
        log = HistoryLog()
        a, b = HistoryStore(log), HistoryStore(log)
        a.record("t1", "wc", 1.0, "c",
                 spark_core_space().default_configuration(),
                 _FakeResult(12.0, True), np.ones(3))
        assert len(b) == 1
        assert b.for_workload("t1", "wc")[0].runtime_s == 12.0
        assert b.log is log

    def test_queries_over_segmented_log(self):
        log = HistoryLog()
        store = HistoryStore(log)
        for i in range(20):
            store.record(f"t{i % 2}", "wc", 1.0, "c",
                         spark_core_space().default_configuration(),
                         _FakeResult(float(100 - i), i % 4 != 1), np.full(3, i))
        assert store.tenants() == ["t0", "t1"]
        best = store.best_for("t0", "wc")
        assert best is not None
        assert best.runtime_s == min(
            r.runtime_s for r in store.for_workload("t0", "wc") if r.success
        )
        mean = store.mean_signature("t1", "wc")
        assert mean is not None and mean.shape == (3,)


class _FakeResult:
    def __init__(self, runtime_s, success):
        self.runtime_s = runtime_s
        self.success = success
