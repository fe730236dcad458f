"""Integration tests for the seamless tuning service (Fig. 1 end to end)."""

import pytest

from repro.core import (
    FixedThresholdDetector,
    PageHinkleyDetector,
    SLOMetric,
    TuningService,
    TuningSLO,
)
from repro.sparksim import FaultPlan, SparkSimulator, oom_kill
from repro.tuning.bo.bayesopt import BayesOptTuner
from repro.workloads import PageRank, Sort, Wordcount, variant_of


@pytest.fixture
def service():
    return TuningService(provider="aws", seed=7)


class TestTwoStageTuning:
    def test_submit_returns_complete_deployment(self, service):
        dep = service.submit("t1", Wordcount(), 20_000,
                             cloud_budget=8, disc_budget=12)
        assert dep.cluster.count >= 2
        assert dep.expected_runtime_s > 0
        assert dep.tuning_evaluations <= 8 + 12
        assert dep.config["spark.executor.memory"] >= 512

    def test_cloud_stage_picks_within_provider(self, service):
        cluster, evals = service.tune_cloud(Sort(), 10_000, budget=8)
        assert cluster.instance.provider == "aws"
        assert 1 <= evals <= 8

    def test_tuned_beats_default_config(self, service, simulator):
        dep = service.submit("t1", PageRank(), 9_000,
                             cloud_budget=8, disc_budget=15)
        from repro.config import spark_core_space

        default = service.disc_space.default_configuration()
        obj_default = simulator.run(
            dep.workload, dep.input_mb, dep.cluster,
            service.store.all()[0].config.replace(**dict(default)), seed=99,
        )
        assert dep.expected_runtime_s < obj_default.effective_runtime()

    def test_history_accumulates(self, service):
        service.submit("t1", Wordcount(), 20_000, cloud_budget=6, disc_budget=8)
        assert len(service.store) >= 8
        assert service.ledger.tuning_runs >= 8

    def test_slo_report_attached(self, service):
        slo = TuningSLO(SLOMetric.IMPROVEMENT_OVER_DEFAULT, target_fraction=0.3)
        dep = service.submit("t1", PageRank(), 9_000, slo=slo,
                             cloud_budget=6, disc_budget=12)
        assert dep.slo_report is not None
        assert dep.slo_report.attained  # default is terrible; easy target


class TestTransferAcrossTenants:
    def test_second_tenant_warm_starts(self, service):
        service.submit("t1", PageRank(), 9_000, cloud_budget=6, disc_budget=12)
        sibling = variant_of(PageRank(), name="their-graph", cpu_scale=1.3)
        dep = service.submit("t2", sibling, 9_000, cloud_budget=6, disc_budget=10)
        assert any("t1/" in s for s in dep.transferred_from)

    def test_transfer_can_be_disabled(self, service):
        service.submit("t1", PageRank(), 9_000, cloud_budget=6, disc_budget=10)
        dep = service.submit("t2", PageRank(cpu_scale=1.2), 9_000,
                             cloud_budget=6, disc_budget=10, use_transfer=False)
        assert dep.transferred_from == []


class TestProductionMonitoring:
    def test_steady_production_no_retuning(self, service):
        # The adaptive default detector stays quiet on a steady stream
        # (a touchy fixed threshold would false-fire on noise outliers —
        # exactly the Section V.D failure mode, tested in test_retuning).
        dep = service.submit("t1", Wordcount(), 20_000,
                             cloud_budget=6, disc_budget=10)
        runs = service.run_production(dep, [20_000] * 10)
        assert len(runs) == 10
        assert not any(r.retuned for r in runs)
        assert dep.retuned_count == 0

    def test_input_growth_triggers_retuning(self, service):
        dep = service.submit("t1", PageRank(), 5_000,
                             cloud_budget=6, disc_budget=12)
        sizes = [5_000] * 5 + [40_000] * 6
        runs = service.run_production(
            dep, sizes, detector=FixedThresholdDetector(delta=0.5),
            retune_budget=8,
        )
        assert any(r.retuned for r in runs)
        assert dep.retuned_count >= 1
        # Re-tuning happened at or after the size jump.
        first_retune = next(r.index for r in runs if r.retuned)
        assert first_retune >= 5

    def test_production_charged_to_ledger(self, service):
        dep = service.submit("t1", Wordcount(), 20_000,
                             cloud_budget=6, disc_budget=8)
        before = service.ledger.production_runs
        service.run_production(dep, [20_000] * 4)
        assert service.ledger.production_runs == before + 4

    def test_successful_runs_are_audited_as_detector_fed(self, service):
        dep = service.submit("t1", Wordcount(), 20_000,
                             cloud_budget=6, disc_budget=8)
        runs = service.run_production(dep, [20_000] * 5)
        assert all(r.success for r in runs)
        assert all(r.detector_fed for r in runs)
        assert all(r.consecutive_failures == 0 for r in runs)
        assert all(r.retune_reason is None for r in runs)


class TestFailureAwareProduction:
    """ISSUE 2: crashes must not poison the detector; K crashes re-tune."""

    def _deployment(self, service):
        return service.submit("t1", Wordcount(), 20_000,
                              cloud_budget=6, disc_budget=8)

    def _faulty_service(self, probability, seed=7):
        plan = FaultPlan.of(oom_kill(probability))
        return TuningService(
            provider="aws", seed=seed,
            simulator=SparkSimulator(fault_plan=plan),
        )

    def test_crashes_do_not_poison_the_detector(self, service):
        """Regression: zero false re-tunes on a steady stream with crashes.

        The old code fed ``effective_runtime()`` (floored at 3600s) into
        Page-Hinkley, so a single production crash fired a false re-tune;
        the replayed legacy stream below still does, the service no
        longer does.
        """
        dep = self._deployment(service)
        # p chosen so crashes occur but never 3 consecutive on this seed:
        # the consecutive-failure policy stays out of the picture and any
        # re-tune here could only come from detector poisoning.
        faulty = self._faulty_service(probability=0.15)
        detector = PageHinkleyDetector()
        runs = faulty.run_production(dep, [20_000] * 12, detector=detector)
        failed = [r for r in runs if not r.success]
        assert failed, "fault plan should crash at least one production run"
        # After the fix: crashes never reach the detector, no false alarms.
        assert detector.n_alarms == 0
        assert not any(r.retuned for r in runs)
        assert all(not r.detector_fed for r in failed)
        assert all(r.detector_fed for r in runs if r.success)
        # Before the fix (replayed): penalized crash runtimes poison the
        # same detector and fire at least one false re-tune.
        legacy = PageHinkleyDetector()
        legacy_alarms = 0
        for r in runs:
            penalized = r.runtime_s if r.success else max(r.runtime_s * 4, 3600.0)
            legacy_alarms += bool(legacy.update(penalized))
        assert legacy_alarms >= 1

    def test_consecutive_failures_trigger_explicit_retune(self, service):
        dep = self._deployment(service)
        faulty = self._faulty_service(probability=1.0)
        detector = PageHinkleyDetector()
        runs = faulty.run_production(
            dep, [20_000] * 4, detector=detector,
            retune_budget=6, max_consecutive_failures=3,
        )
        assert [r.consecutive_failures for r in runs] == [1, 2, 3, 1]
        assert runs[2].retuned and runs[2].retune_reason == "failures"
        assert dep.retuned_count >= 1
        # The failure policy, not the detector, owns crash handling.
        assert detector.n_alarms == 0
        assert all(not r.detector_fed for r in runs)

    def test_max_consecutive_failures_validated(self, service):
        dep = self._deployment(service)
        with pytest.raises(ValueError):
            service.run_production(dep, [20_000], max_consecutive_failures=0)


class TestCloudStopGuardFix:
    """ISSUE 2 satellite: the EI stop rule must track the tuner's n_init."""

    def test_small_budgets_consult_the_stop_rule(self, service, monkeypatch):
        calls = []
        original = BayesOptTuner.should_stop

        def spy(self, ei_fraction=0.1):
            calls.append(ei_fraction)
            return original(self, ei_fraction)

        monkeypatch.setattr(BayesOptTuner, "should_stop", spy)
        service.tune_cloud(Sort(), 10_000, budget=5)
        # Regression: with the hard-coded ``i >= 6`` guard this was never
        # consulted for budget < 7.
        assert len(calls) >= 1

    def test_stop_rule_ends_campaign_right_after_the_initial_design(
        self, service, monkeypatch,
    ):
        monkeypatch.setattr(
            BayesOptTuner, "should_stop", lambda self, ei_fraction=0.1: True,
        )
        _, evaluations = service.tune_cloud(Sort(), 10_000, budget=12)
        assert evaluations == 6      # n_init = min(6, 12): first consult wins


class TestEngineExecutor:
    def test_process_executor_is_rejected(self):
        # Batches run in-process only; no option builds a worker pool.
        with pytest.raises(ValueError):
            TuningService(executor="process")
