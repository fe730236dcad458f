"""Identity suite: the signature index vs. the naive full-log scans.

The index is a pure performance structure — every answer must be
*bit-identical* to recomputing from a fresh snapshot, whether the index
folded the log record by record or in one sync.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.space import Configuration
from repro.core.histlog import HistoryLog
from repro.core.history import HistoryStore
from repro.core.simindex import SignatureIndex, signature_index
from repro.core.similarity import (
    find_similar_workloads,
    find_similar_workloads_scan,
    signature_distance,
)

N_FEATURES = 11  # characterization signature dimension (scaled() asserts it)

_feature = st.floats(0.0, 8.0, allow_nan=False)
_signature = st.lists(_feature, min_size=N_FEATURES, max_size=N_FEATURES)
_record = st.tuples(
    st.integers(0, 3),                    # tenant
    st.integers(0, 2),                    # label
    st.floats(0.125, 1000.0, allow_nan=False),           # runtime
    st.booleans(),                        # success
    _signature,
)


def _fill(records, after_step=None):
    """Append hypothesis-drawn records; call ``after_step(log, store)``
    after every append."""
    log = HistoryLog()
    store = HistoryStore(log)
    cfg = Configuration({})
    for tenant, label, runtime, success, sig in records:
        log.append_new(
            tenant=f"t{tenant}", workload_label=f"w{label}", input_mb=100.0,
            cluster="c", config=cfg, runtime_s=float(runtime),
            success=success, signature=np.asarray(sig, dtype=float),
        )
        if after_step is not None:
            after_step(log, store)
    return log, store


class TestAggregateIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=60))
    def test_aggregates_match_snapshot_recompute(self, records):
        _, store = _fill(records)
        snap = store.all()
        assert store.workload_keys() == sorted({r.key for r in snap})
        for key in store.workload_keys():
            runs = [r for r in snap if r.key == key and r.success]
            best = store.best_for(*key)
            mean = store.mean_signature(*key)
            if runs:
                # Same record object, not just the same runtime — and the
                # mean must be the bit-exact np.mean the scan computed.
                assert best is min(runs, key=lambda r: r.runtime_s)
                assert np.array_equal(
                    mean, np.mean([r.signature for r in runs], axis=0)
                )
            else:
                assert best is None and mean is None
        succ = [r for r in snap if r.success]
        expected = min((r.runtime_s for r in succ), default=None)
        assert store.best_runtime_overall() == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=60))
    def test_for_workload_lists_the_snapshot_records_of_each_key(self, records):
        """Per-key record lists vs a snapshot filter after every append:
        the same objects in log order, and ``[]`` for a key the log has
        not seen (yet)."""
        keys = [(f"t{t}", f"w{w}") for t in range(4) for w in range(3)]

        def check(log, store):
            snap = log.snapshot()
            for key in keys:
                got = store.for_workload(*key)
                want = [r for r in snap if r.key == key]
                assert len(got) == len(want)
                assert all(a is b for a, b in zip(got, want)), key
            assert store.for_workload("ghost", "w0") == []

        log, store = _fill(records, after_step=check)
        check(log, store)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=60),
           st.integers(0, 3), st.integers(0, 2))
    def test_best_runtime_excluding_matches_scan(self, records, tenant, label):
        _, store = _fill(records)
        exclude = (f"t{tenant}", f"w{label}")
        naive = min(
            (r.runtime_s for r in store.all()
             if r.success and r.key != exclude),
            default=None,
        )
        assert store.index().best_runtime_excluding(exclude) == naive

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=50))
    def test_incremental_equals_rebuild(self, records):
        """Syncing record-by-record ends in the same state as a fresh
        index synced once over the whole log."""
        log, store = _fill(records,
                           after_step=lambda log, store: store.index().sync())
        index = store.index()
        fresh = SignatureIndex(log)
        fresh.sync()
        assert fresh.workload_keys() == index.workload_keys()
        for key in index.workload_keys():
            mean = index.mean_signature(*key)
            if mean is None:
                assert fresh.mean_signature(*key) is None
            else:
                assert np.array_equal(fresh.mean_signature(*key), mean)
            assert fresh.best_for(*key) is index.best_for(*key)


class TestFindSimilarIdentity:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=50), _signature,
           st.integers(0, 6),
           st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 2))),
           st.floats(0.1, 50.0, allow_nan=False))
    def test_indexed_neighbours_bit_identical_to_scan(
            self, records, target, k, exclude, max_distance):
        _, store = _fill(records)
        target = np.asarray(target, dtype=float)
        if exclude is not None:
            exclude = (f"t{exclude[0]}", f"w{exclude[1]}")
        indexed = find_similar_workloads(
            store, target, k=k, exclude=exclude, max_distance=max_distance)
        scanned = find_similar_workloads_scan(
            store, target, k=k, exclude=exclude, max_distance=max_distance)
        assert len(indexed) == len(scanned)
        for a, b in zip(indexed, scanned):
            assert (a.tenant, a.workload_label) == (b.tenant, b.workload_label)
            assert a.distance == b.distance          # bitwise, not approx
            assert np.array_equal(a.signature, b.signature)

    def test_interleaved_queries_and_appends_stay_identical(self):
        """Query → append → query: the sync must keep up."""
        rng = np.random.default_rng(5)
        log = HistoryLog()
        store = HistoryStore(log)
        cfg = Configuration({})
        target = rng.random(N_FEATURES)
        for i in range(120):
            log.append_new(
                tenant=f"t{i % 5}", workload_label=f"w{i % 3}",
                input_mb=100.0, cluster="c", config=cfg,
                runtime_s=float(rng.random() * 100),
                success=bool(rng.random() > 0.25),
                signature=rng.random(N_FEATURES),
            )
            if i % 7 == 0:
                a = find_similar_workloads(store, target, k=4)
                b = find_similar_workloads_scan(store, target, k=4)
                assert [(s.tenant, s.workload_label, s.distance) for s in a] \
                    == [(s.tenant, s.workload_label, s.distance) for s in b]

    def test_tie_break_matches_scan_key_order(self):
        """Equidistant workloads must come back in key-sorted order."""
        log = HistoryLog()
        store = HistoryStore(log)
        cfg = Configuration({})
        sig = np.ones(N_FEATURES)
        for tenant in ("t3", "t0", "t2", "t1"):
            log.append_new(
                tenant=tenant, workload_label="w", input_mb=1.0, cluster="c",
                config=cfg, runtime_s=1.0, success=True, signature=sig,
            )
        target = np.zeros(N_FEATURES)
        for k in (1, 2, 3, 4, 9):
            got = find_similar_workloads(store, target, k=k)
            ref = find_similar_workloads_scan(store, target, k=k)
            assert [s.tenant for s in got] == [s.tenant for s in ref]


class TestIndexMechanics:
    def test_one_index_per_log_shared_across_store_views(self):
        log = HistoryLog()
        a, b = HistoryStore(log), HistoryStore(log)
        assert a.index() is b.index()
        assert HistoryStore().index() is not a.index()

    def test_sync_is_incremental_not_rescan(self):
        log = HistoryLog()
        store = HistoryStore(log)
        cfg = Configuration({})
        sig = np.ones(N_FEATURES)
        for i in range(10):
            log.append_new(tenant="t", workload_label="w", input_mb=1.0,
                           cluster="c", config=cfg, runtime_s=1.0,
                           success=True, signature=sig)
        index = store.index()
        index.sync()
        assert index.counters()["records_indexed"] == 10
        for i in range(5):
            log.append_new(tenant="t", workload_label="w", input_mb=1.0,
                           cluster="c", config=cfg, runtime_s=1.0,
                           success=True, signature=sig)
        index.sync()
        c = index.counters()
        assert c["records_indexed"] == 15      # 5 new, not 15 rescanned

    def test_dimension_mismatch_rejected(self):
        log = HistoryLog()
        store = HistoryStore(log)
        cfg = Configuration({})
        log.append_new(tenant="t", workload_label="w", input_mb=1.0,
                       cluster="c", config=cfg, runtime_s=1.0,
                       success=True, signature=np.ones(N_FEATURES))
        log.append_new(tenant="t", workload_label="w", input_mb=1.0,
                       cluster="c", config=cfg, runtime_s=1.0,
                       success=True, signature=np.ones(3))
        with pytest.raises(ValueError):
            store.index().sync()

    def test_failed_sync_resumes_at_the_record_that_raised(self):
        """Records folded before a bad signature are not folded again by
        the next sync, and the bad record is never listed for its key."""
        log = HistoryLog()
        store = HistoryStore(log)
        cfg = Configuration({})
        for dim in (N_FEATURES, 3):
            log.append_new(tenant="t", workload_label="w", input_mb=1.0,
                           cluster="c", config=cfg, runtime_s=1.0,
                           success=True, signature=np.ones(dim))
        index = store.index()
        for _ in range(2):
            with pytest.raises(ValueError):
                index.sync()
        assert index.counters()["records_indexed"] == 1
        agg = index._keys[("t", "w")]
        assert agg.n_success == 1
        assert len(agg.records) == 1 and agg.records[0] is log.snapshot()[0]


class TestLogTail:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_record, min_size=0, max_size=40), st.integers(0, 45))
    def test_tail_is_snapshot_suffix(self, records, start):
        log, _ = _fill(records)
        assert log.tail(start) == log.snapshot()[start:]


def test_index_arrays_keep_float64_signatures():
    """Dtype pins on the index's array surfaces: mean signatures and
    candidate signatures stay float64, so distance identity with the
    scan never depends on a narrower accumulator sneaking into the shard
    arrays.  No static check guards these dtypes; this test does."""
    rng = np.random.default_rng(9)
    log = HistoryLog()
    store = HistoryStore(log)
    cfg = Configuration({})
    for i in range(24):
        log.append_new(
            tenant=f"t{i % 3}", workload_label=f"w{i % 2}", input_mb=100.0,
            cluster="c", config=cfg, runtime_s=float(rng.random() * 10 + 1),
            success=True, signature=rng.random(N_FEATURES),
        )
    for key in store.workload_keys():
        mean = store.mean_signature(*key)
        assert mean.dtype == np.float64, key
        assert mean.shape == (N_FEATURES,)
    target = rng.random(N_FEATURES)
    for candidate in find_similar_workloads(store, target, k=4):
        assert candidate.signature.dtype == np.float64
        assert isinstance(candidate.distance, float)


def test_signature_index_internal_arrays_are_float64():
    """The index's backing matrices themselves, not just query results.

    White-box on purpose: ``find_similar`` compares distances computed
    from ``_means``, so the accumulator dtype is load-bearing for the
    bit-identity suite above even though it never escapes the class."""
    log = HistoryLog()
    store = HistoryStore(log)
    cfg = Configuration({})
    for i in range(8):
        log.append_new(tenant="t", workload_label=f"w{i}", input_mb=1.0,
                       cluster="c", config=cfg, runtime_s=1.0, success=True,
                       signature=np.full(N_FEATURES, float(i)))
    index = store.index()
    index.sync()
    assert signature_index(log) is index
    assert index._means.dtype == np.float64
    assert index._best_runtimes.dtype == np.float64
    assert index._counts.dtype == np.int64


def test_signature_distance_still_euclidean():
    a = np.arange(N_FEATURES, dtype=float)
    b = a + 2.0
    d = signature_distance(a, b)
    assert d == pytest.approx(np.linalg.norm((a - b) / _scale()))


def _scale():
    from repro.core.characterization import _FEATURE_SCALE
    return _FEATURE_SCALE
