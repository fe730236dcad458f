"""Regression tests for the service-layer correctness fixes.

Each class pins one of the bugs fixed alongside the service layer:
probe records that never matched the launched configuration, the SLO
reference run that was charged but never counted, and history records
aliasing caller-owned signature arrays.
"""

import numpy as np

from repro.cloud.cluster import Cluster
from repro.core import HistoryStore, SLOMetric, TuningService, TuningSLO
from repro.core.characterization import probe_configuration
from repro.tuning.random_search import RandomSearchTuner
from repro.workloads import Wordcount


class TestProbeRecordedAsLaunched:
    """tune_disc used to record the raw probe configuration while the
    tuner observed the repaired one — history replayed by transfer then
    contained a configuration that never actually ran."""

    def test_recorded_probe_matches_observed_probe(self):
        service = TuningService(seed=3)
        # 2-vCPU nodes: the canonical 4-core/8 GiB probe executors cannot
        # launch as requested, so the repair must change the config.
        cluster = Cluster.of("m5.large", 4)
        result, _, _ = service.tune_disc(
            "t1", "wc", Wordcount(), 5_000, cluster,
            budget=4, use_transfer=False,
        )
        probe_record = service.store.for_workload("t1", "wc")[0]
        probe_observation = result.history[0]
        for name in service.disc_space.names:
            assert probe_record.config[name] == probe_observation.config[name]

    def test_repair_actually_changed_the_probe(self):
        service = TuningService(seed=3)
        cluster = Cluster.of("m5.large", 4)
        service.tune_disc("t1", "wc", Wordcount(), 5_000, cluster,
                          budget=4, use_transfer=False)
        recorded = service.store.for_workload("t1", "wc")[0].config
        raw = probe_configuration()
        assert recorded["spark.executor.cores"] <= cluster.instance.vcpus
        assert (
            recorded["spark.executor.cores"] != raw["spark.executor.cores"]
            or recorded["spark.executor.memory"] != raw["spark.executor.memory"]
        )


class TestSLOReferenceCounted:
    """The IMPROVEMENT_OVER_DEFAULT reference run is a paid execution;
    it used to be charged to the ledger but left out of the
    deployment's evaluation count and invisible on the report."""

    @staticmethod
    def _submit(slo):
        service = TuningService(seed=11)
        return service.submit(
            "t1", Wordcount(), 20_000, slo=slo,
            cluster=Cluster.of("m5.xlarge", 4),
            # include_default=False: the default config must not also be
            # a search suggestion, or the SLO reference run would be an
            # (unpaid) engine cache hit and the ledger comparison below
            # would no longer count it
            disc_tuner=RandomSearchTuner(service.disc_space, seed=5,
                                         include_default=False),
            disc_budget=5, use_transfer=False,
        ), service

    def test_reference_evaluation_audited_and_counted(self):
        (baseline, _), (dep, service) = self._submit(None), self._submit(
            TuningSLO(SLOMetric.IMPROVEMENT_OVER_DEFAULT, 0.2)
        )
        assert dep.slo_report is not None
        assert dep.slo_report.reference_evaluations == 1
        assert dep.tuning_evaluations == baseline.tuning_evaluations + 1
        # the bill and the count agree: every ledger-charged tuning run
        # appears in the deployment's evaluation total
        assert dep.tuning_evaluations == service.ledger.tuning_runs

    def test_history_based_references_are_free(self):
        dep, service = self._submit(
            TuningSLO(SLOMetric.WITHIN_OPTIMAL, 0.5)
        )
        assert dep.slo_report is not None
        assert dep.slo_report.reference_evaluations == 0
        assert dep.tuning_evaluations == service.ledger.tuning_runs


class TestSignatureAliasing:
    """record() used to keep a reference to the caller's signature array:
    mutating it afterwards silently changed past similarity answers."""

    @staticmethod
    def _store_with_one(sig):
        store = HistoryStore()
        store.record("t1", "wc", 1_000.0, "c",
                     probe_configuration(), _Result(50.0, True), sig)
        return store

    def test_caller_mutation_does_not_change_history(self):
        sig = np.ones(8)
        store = self._store_with_one(sig)
        before = store.mean_signature("t1", "wc").copy()
        sig[:] = 99.0
        np.testing.assert_array_equal(store.mean_signature("t1", "wc"), before)
        np.testing.assert_array_equal(store.all()[0].signature, before)

    def test_stored_signature_is_read_only(self):
        store = self._store_with_one(np.ones(8))
        rec = store.all()[0]
        try:
            rec.signature[0] = 5.0
        except ValueError:
            pass
        else:
            raise AssertionError("stored signature should be immutable")


class _Result:
    def __init__(self, runtime_s, success):
        self.runtime_s = runtime_s
        self.success = success
