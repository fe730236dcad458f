"""Tests for serialization/compression tables and the scalar reference's
shuffle cost functions (``tests/oracles.py``)."""

import pytest

from repro.config import Configuration, SPARK_DEFAULTS
from repro.sparksim import CODECS, SERIALIZERS
from tests.oracles import shuffle_read, shuffle_write


def _config(**overrides):
    cfg = dict(SPARK_DEFAULTS)
    cfg.update(overrides)
    return Configuration(cfg)


class TestTables:
    def test_kryo_faster_and_denser_than_java(self):
        assert SERIALIZERS["kryo"].serialize_s_per_mb < SERIALIZERS["java"].serialize_s_per_mb
        assert SERIALIZERS["kryo"].expansion < SERIALIZERS["java"].expansion

    def test_zstd_denser_but_slower(self):
        assert CODECS["zstd"].ratio < CODECS["lz4"].ratio
        assert CODECS["zstd"].compress_s_per_mb > CODECS["lz4"].compress_s_per_mb


class TestShuffleWrite:
    def test_compression_trades_bytes_for_cpu(self):
        on = shuffle_write(100, _config(**{"spark.shuffle.compress": True}))
        off = shuffle_write(100, _config(**{"spark.shuffle.compress": False}))
        assert on.disk_mb < off.disk_mb
        assert on.cpu_s > off.cpu_s

    def test_small_buffer_inflates_disk_traffic(self):
        small = shuffle_write(100, _config(**{"spark.shuffle.file.buffer": 16}))
        large = shuffle_write(100, _config(**{"spark.shuffle.file.buffer": 512}))
        assert small.disk_mb > large.disk_mb

    def test_sort_path_costs_cpu_beyond_bypass_threshold(self):
        few = shuffle_write(100, _config(), num_reduce_tasks=100)   # bypass
        many = shuffle_write(100, _config(), num_reduce_tasks=500)  # sort
        assert many.cpu_s > few.cpu_s

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shuffle_write(-1, _config())

    def test_zero_data_zero_cost(self):
        cost = shuffle_write(0, _config())
        assert cost.cpu_s == 0 and cost.disk_mb == 0


class TestShuffleRead:
    def test_remote_fraction_splits_traffic(self):
        cost, _ = shuffle_read(100, _config(**{"spark.shuffle.compress": False}),
                               num_map_tasks=10, remote_fraction=0.75)
        assert cost.net_mb == pytest.approx(75)
        assert cost.disk_mb == pytest.approx(25)

    def test_small_inflight_hurts_fetch_efficiency(self):
        _, eff_small = shuffle_read(100, _config(**{"spark.reducer.maxSizeInFlight": 8}),
                                    num_map_tasks=10)
        _, eff_large = shuffle_read(100, _config(**{"spark.reducer.maxSizeInFlight": 96}),
                                    num_map_tasks=10)
        assert eff_small < eff_large
        assert eff_large == 1.0

    def test_many_map_outputs_cost_connections(self):
        few, _ = shuffle_read(100, _config(), num_map_tasks=10)
        many, _ = shuffle_read(100, _config(), num_map_tasks=5000)
        assert many.cpu_s > few.cpu_s

    def test_connection_reuse_amortizes(self):
        base, _ = shuffle_read(100, _config(), num_map_tasks=5000)
        reused, _ = shuffle_read(
            100, _config(**{"spark.shuffle.io.numConnectionsPerPeer": 8}),
            num_map_tasks=5000,
        )
        assert reused.cpu_s < base.cpu_s

    def test_kryo_cheaper_deserialization(self):
        java, _ = shuffle_read(100, _config(**{"spark.serializer": "java"}), 10)
        kryo, _ = shuffle_read(100, _config(**{"spark.serializer": "kryo"}), 10)
        assert kryo.cpu_s < java.cpu_s

    def test_validates_remote_fraction(self):
        with pytest.raises(ValueError):
            shuffle_read(100, _config(), 10, remote_fraction=1.5)
