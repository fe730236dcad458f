"""Per-phase profiling: the accumulator and its service-stack wiring."""

import pytest

from repro.cloud.cluster import Cluster
from repro.core import PhaseProfiler, TuningService
from repro.core.service import ingest_production_runs
from repro.core.serviced.loadgen import LoadScenario, run_load
from repro.workloads import get_workload


class TestPhaseProfiler:
    def test_accumulates_time_and_calls(self):
        p = PhaseProfiler()
        for _ in range(3):
            with p.phase("suggest"):
                pass
        snap = p.snapshot()
        assert snap["suggest"]["calls"] == 3
        assert snap["suggest"]["seconds"] >= 0.0
        assert p.total_seconds() >= 0.0

    def test_exceptions_still_charged(self):
        p = PhaseProfiler()
        try:
            with p.phase("evaluate"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert p.snapshot()["evaluate"]["calls"] == 1

    def test_merge_folds_totals(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.add("suggest", 1.0, calls=2)
        b.add("suggest", 0.5, calls=1)
        b.add("ingest", 2.0, calls=4)
        a.merge(b)
        snap = a.snapshot()
        assert snap["suggest"]["seconds"] == 1.5
        assert snap["suggest"]["calls"] == 3
        assert snap["ingest"]["calls"] == 4


class TestServiceWiring:
    def test_submit_records_suggest_evaluate_similarity(self):
        service = TuningService(seed=0)
        cluster = Cluster.of("m5.xlarge", 4)
        service.submit(
            "tenant-a", get_workload("wordcount"), 500.0,
            cluster=cluster, disc_budget=4, use_transfer=True,
        )
        phases = service.counters()["phases"]
        assert phases["suggest"]["calls"] >= 1
        assert phases["evaluate"]["calls"] >= 1
        assert phases["similarity"]["calls"] >= 1
        counters = service.counters()
        assert "engine" in counters and "signature_index" in counters

    def test_ingest_phase_recorded(self):
        service = TuningService(seed=0)
        cluster = Cluster.of("m5.xlarge", 4)
        deployment = service.submit(
            "tenant-a", get_workload("wordcount"), 500.0,
            cluster=cluster, disc_budget=3, use_transfer=False,
        )
        n = len(ingest_production_runs(service, deployment, 500.0, 5))
        assert n == 5
        phases = service.counters()["phases"]
        assert phases["ingest"]["calls"] == 1
        assert phases["ingest"]["seconds"] > 0.0

    def test_load_report_carries_pool_wide_per_phase(self):
        report = run_load(LoadScenario(
            n_tenants=4, n_workload_families=2, runs_per_tenant=4,
            ingest_batches=1, n_shards=2, disc_budget=2, batch_size=2,
        ))
        assert report.tenants_deployed == 4
        assert set(report.per_phase) >= {"suggest", "evaluate", "ingest"}
        for phase in report.per_phase.values():
            assert phase["seconds"] >= 0.0 and phase["calls"] >= 1
        shards = report.stats["shards"]
        assert len(shards["phases_by_shard"]) == 2

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_pool_phase_seconds_add_up_within_wall_time(self, seed):
        """Phases of one pool run one at a time on its runner thread, so
        their pool-wide seconds cannot exceed the scenario's wall time."""
        report = run_load(LoadScenario(
            n_tenants=16, runs_per_tenant=40, n_shards=4, seed=seed,
        ))
        assert report.runs_submitted == 16 * 40
        phase_s = sum(p["seconds"] for p in report.per_phase.values())
        assert 0.0 < phase_s <= report.wall_s
