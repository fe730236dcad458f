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
        counters = p.counters()
        assert set(counters) == {"suggest.seconds", "suggest.calls"}
        assert counters["suggest.calls"] == 3
        assert counters["suggest.seconds"] >= 0.0

    def test_exceptions_still_charged(self):
        p = PhaseProfiler()
        try:
            with p.phase("evaluate"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert p.counters()["evaluate.calls"] == 1


class TestServiceWiring:
    def test_submit_records_suggest_evaluate_similarity(self):
        service = TuningService(seed=0)
        cluster = Cluster.of("m5.xlarge", 4)
        service.submit(
            "tenant-a", get_workload("wordcount"), 500.0,
            cluster=cluster, disc_budget=4, use_transfer=True,
        )
        counters = service.counters()
        assert counters["phase.suggest.calls"] >= 1
        assert counters["phase.evaluate.calls"] >= 1
        assert counters["phase.similarity.calls"] >= 1
        assert {key.split(".")[0] for key in counters} == \
            {"engine", "simulator", "phase", "index"}

    def test_ingest_phase_recorded(self):
        service = TuningService(seed=0)
        cluster = Cluster.of("m5.xlarge", 4)
        deployment = service.submit(
            "tenant-a", get_workload("wordcount"), 500.0,
            cluster=cluster, disc_budget=3, use_transfer=False,
        )
        n = len(ingest_production_runs(service, deployment, 500.0, 5))
        assert n == 5
        counters = service.counters()
        assert counters["phase.ingest.calls"] == 1
        assert counters["phase.ingest.seconds"] > 0.0

    def test_load_report_carries_pool_wide_per_phase(self):
        report = run_load(LoadScenario(
            n_tenants=4, n_workload_families=2, runs_per_tenant=4,
            ingest_batches=1, n_shards=2, disc_budget=2, batch_size=2,
        ))
        assert report.tenants_deployed == 4
        counters = report.counters
        for phase in ("suggest", "evaluate", "ingest"):
            assert counters[f"phase.{phase}.calls"] >= 1
            assert counters[f"phase.{phase}.seconds"] >= 0.0
        assert {"shard0.jobs", "shard1.jobs"} <= set(counters)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_pool_phase_seconds_add_up_within_wall_time(self, seed):
        """Phases of one pool run one at a time on its runner thread, so
        their pool-wide seconds cannot exceed the scenario's wall time."""
        report = run_load(LoadScenario(
            n_tenants=16, runs_per_tenant=40, n_shards=4, seed=seed,
        ))
        assert report.runs_submitted == 16 * 40
        phase_s = sum(value for key, value in report.counters.items()
                      if key.startswith("phase.") and key.endswith(".seconds"))
        assert 0.0 < phase_s <= report.wall_s
