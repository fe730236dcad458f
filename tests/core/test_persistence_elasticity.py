"""Tests for history persistence and elastic cluster sizing."""

import json

import numpy as np
import pytest

from repro.cloud import get_instance
from repro.core import (
    ElasticScaler,
    HistoryStore,
    load_history,
    probe_configuration,
    save_history,
    signature,
)
from repro.workloads import Sort


class TestPersistence:
    def _store(self, cluster, simulator):
        store = HistoryStore()
        for seed in range(4):
            result = simulator.run(Sort(), 5_000, cluster,
                                   probe_configuration(), seed=seed)
            store.record("t", "sort", 5_000, cluster.describe(),
                         probe_configuration(), result, signature(result))
        return store

    def test_roundtrip(self, cluster, simulator, tmp_path):
        store = self._store(cluster, simulator)
        path = tmp_path / "history.json"
        save_history(store, path)
        loaded = load_history(path)
        assert len(loaded) == len(store)
        for a, b in zip(store.all(), loaded.all()):
            assert a.record_id == b.record_id
            assert a.config == b.config
            assert a.runtime_s == pytest.approx(b.runtime_s)
            assert np.allclose(a.signature, b.signature)

    def test_loaded_store_continues_id_sequence(self, cluster, simulator, tmp_path):
        store = self._store(cluster, simulator)
        path = tmp_path / "history.json"
        save_history(store, path)
        loaded = load_history(path)
        result = simulator.run(Sort(), 5_000, cluster, probe_configuration(), seed=99)
        rec = loaded.record("t", "sort", 5_000, cluster.describe(),
                            probe_configuration(), result, signature(result))
        existing = {r.record_id for r in store.all()}
        assert rec.record_id not in existing

    def test_queries_survive_roundtrip(self, cluster, simulator, tmp_path):
        store = self._store(cluster, simulator)
        path = tmp_path / "history.json"
        save_history(store, path)
        loaded = load_history(path)
        assert loaded.workload_keys() == store.workload_keys()
        assert loaded.best_for("t", "sort").runtime_s == pytest.approx(
            store.best_for("t", "sort").runtime_s
        )

    def test_reads_version_one_files(self, cluster, simulator, tmp_path):
        """Version 1 carried a per-record ``timestamp``; version 2 drops
        it, and the reader ignores it in older files."""
        store = self._store(cluster, simulator)
        path = tmp_path / "history.json"
        save_history(store, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert all("timestamp" not in r for r in payload["records"])
        payload["format_version"] = 1
        for r in payload["records"]:
            r["timestamp"] = r["record_id"]
        path.write_text(json.dumps(payload))
        loaded = load_history(path)
        assert [r.record_id for r in loaded.all()] == \
               [r.record_id for r in store.all()]

    def test_version_check(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "records": []}))
        with pytest.raises(ValueError):
            load_history(path)

    def test_empty_store_roundtrip(self, tmp_path):
        path = tmp_path / "empty.json"
        save_history(HistoryStore(), path)
        assert len(load_history(path)) == 0


class TestElasticScaler:
    def _scaler(self, **kwargs):
        return ElasticScaler(get_instance("m5.xlarge"), min_nodes=2,
                             max_nodes=16, **kwargs)

    def test_explores_distinct_sizes_first(self):
        scaler = self._scaler()
        sizes = []
        for _ in range(3):
            n = scaler.choose_nodes(10_000)
            sizes.append(n)
            scaler.observe(n, 10_000, 100.0)
        assert len(set(sizes)) >= 2

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            ElasticScaler(get_instance("m5.xlarge"), min_nodes=5, max_nodes=2)
        with pytest.raises(ValueError):
            ElasticScaler(get_instance("m5.xlarge"), objective="vibes")

    def test_rejects_bad_runtime(self):
        with pytest.raises(ValueError):
            self._scaler().observe(4, 100, 0.0)

    def _train(self, scaler, a=5.0, b=0.05, d=2.0):
        """Feed synthetic Ernest-shaped observations."""
        rng = np.random.default_rng(0)
        for _ in range(12):
            n = int(rng.integers(2, 17))
            data = float(rng.uniform(5_000, 40_000))
            runtime = a + b * data / n + d * n
            scaler.observe(n, data, runtime)

    def test_price_objective_balances_nodes(self):
        scaler = self._scaler()
        self._train(scaler)
        chosen_small = scaler.choose_nodes(5_000)
        chosen_big = scaler.choose_nodes(40_000)
        # Bigger inputs justify more nodes.
        assert chosen_big >= chosen_small
        assert 2 <= chosen_small <= 16

    def test_runtime_objective_uses_more_nodes(self):
        price = self._scaler(objective="price")
        speed = self._scaler(objective="runtime")
        self._train(price)
        self._train(speed)
        assert speed.choose_nodes(30_000) >= price.choose_nodes(30_000)

    def test_runtime_cap_filters_cheap_but_slow(self):
        uncapped = self._scaler()
        capped = self._scaler(runtime_cap_s=120.0)
        # Steep data term: few nodes are cheap but slow.
        self._train(uncapped, b=0.2, d=0.5)
        self._train(capped, b=0.2, d=0.5)
        n_uncapped = uncapped.choose_nodes(40_000)
        n_capped = capped.choose_nodes(40_000)
        assert n_capped >= n_uncapped

    def test_shrinks_when_input_shrinks(self):
        scaler = self._scaler()
        self._train(scaler)
        big = scaler.choose_nodes(40_000)
        small = scaler.choose_nodes(2_000)
        assert small <= big
