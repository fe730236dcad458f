"""Tests for the history store and workload characterization."""

import numpy as np
import pytest

from repro.core import (
    FEATURE_NAMES,
    HistoryStore,
    probe_configuration,
    signature,
    signature_distance,
)
from repro.workloads import KMeans, PageRank, Sort, Wordcount


def _run(simulator, cluster, workload, input_mb, seed=1):
    return simulator.run(workload, input_mb, cluster, probe_configuration(), seed=seed)


class TestSignature:
    def test_feature_vector_shape(self, cluster, simulator):
        sig = signature(_run(simulator, cluster, Wordcount(), 5000))
        assert sig.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(sig).all()

    def test_probe_config_always_fits(self, cluster, simulator):
        for w in (Wordcount(), Sort(), PageRank(), KMeans()):
            r = _run(simulator, cluster, w, w.inputs.ds1_mb)
            assert r.success

    def test_sort_shuffle_heavier_than_wordcount(self, cluster, simulator):
        idx = FEATURE_NAMES.index("shuffle_ratio")
        wc = signature(_run(simulator, cluster, Wordcount(), 10_000))
        sort = signature(_run(simulator, cluster, Sort(), 10_000))
        assert sort[idx] > 5 * wc[idx]

    def test_iterative_workloads_cache_heavy(self, cluster, simulator):
        idx = FEATURE_NAMES.index("cache_fraction")
        km = signature(_run(simulator, cluster, KMeans(), 5_000))
        wc = signature(_run(simulator, cluster, Wordcount(), 5_000))
        assert km[idx] > 0.3
        assert wc[idx] == 0.0

    def test_same_workload_similar_across_sizes(self, cluster, simulator):
        """Characterization should recognize a workload as it grows..."""
        pr1 = signature(_run(simulator, cluster, PageRank(), 5_000))
        pr2 = signature(_run(simulator, cluster, PageRank(), 12_000))
        wc = signature(_run(simulator, cluster, Wordcount(), 20_000))
        assert signature_distance(pr1, pr2) < signature_distance(pr1, wc)

    def test_distance_zero_for_identical(self, cluster, simulator):
        sig = signature(_run(simulator, cluster, Sort(), 5_000))
        assert signature_distance(sig, sig) == 0.0

    def test_distance_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            signature_distance(np.zeros(3), np.zeros(3))


class TestHistoryStore:
    def _populate(self, cluster, simulator):
        store = HistoryStore()
        for tenant, w, mb in [("a", Wordcount(), 5000), ("a", Sort(), 5000),
                              ("b", Sort(), 8000)]:
            for seed in range(3):
                r = _run(simulator, cluster, w, mb, seed=seed)
                store.record(tenant, w.name, mb, cluster.describe(),
                             probe_configuration(), r, signature(r))
        return store

    def test_record_and_query(self, cluster, simulator):
        store = self._populate(cluster, simulator)
        assert len(store) == 9
        assert store.tenants() == ["a", "b"]
        assert ("a", "wordcount") in store.workload_keys()
        assert len(store.for_workload("a", "sort")) == 3

    def test_record_ids_unique_and_timestamps_ordered(self, cluster, simulator):
        store = self._populate(cluster, simulator)
        ids = [r.record_id for r in store.all()]
        assert len(set(ids)) == len(ids)

    def test_best_for(self, cluster, simulator):
        store = self._populate(cluster, simulator)
        best = store.best_for("a", "sort")
        runs = store.for_workload("a", "sort")
        assert best.runtime_s == min(r.runtime_s for r in runs)

    def test_best_for_missing_returns_none(self):
        assert HistoryStore().best_for("x", "y") is None

    def test_mean_signature(self, cluster, simulator):
        store = self._populate(cluster, simulator)
        mean_sig = store.mean_signature("a", "sort")
        assert mean_sig.shape == (len(FEATURE_NAMES),)
        assert store.mean_signature("zz", "zz") is None
