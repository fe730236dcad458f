"""Tests for TuningSession: recording and stopping rules."""

import pytest

from repro.cloud import CostLedger
from repro.config import spark_core_space
from repro.core import HistoryStore, SessionConfig, TuningSession
from repro.tuning import BayesOptTuner, RandomSearchTuner, SimulationObjective
from repro.workloads import Wordcount


def _session(cluster, tuner_cls=RandomSearchTuner, store=None, ledger=None, **tuner_kwargs):
    space = spark_core_space()
    workload = Wordcount()
    input_mb = 20_000
    objective = SimulationObjective(workload, input_mb, cluster=cluster, seed=9,
                                    ledger=ledger)
    return TuningSession(
        tenant="t", workload_label="wc", workload=workload, input_mb=input_mb,
        cluster=cluster, tuner=tuner_cls(space, seed=1, **tuner_kwargs),
        objective=objective, store=store,
    )


class TestRun:
    def test_respects_budget(self, cluster):
        session = _session(cluster)
        result = session.run(SessionConfig(budget=7, ei_stop_fraction=None))
        assert result.n_evaluations == 7

    def test_records_every_evaluation(self, cluster):
        store = HistoryStore()
        session = _session(cluster, store=store)
        session.run(SessionConfig(budget=5, ei_stop_fraction=None))
        assert len(store) == 5

    def test_ledger_charged(self, cluster):
        ledger = CostLedger()
        session = _session(cluster, ledger=ledger)
        session.run(SessionConfig(budget=4, ei_stop_fraction=None))
        assert ledger.tuning_runs == 4

    def test_target_runtime_early_exit(self, cluster):
        session = _session(cluster)
        # Absurdly lax target: stop as soon as min_evaluations allows.
        result = session.run(SessionConfig(
            budget=30, min_evaluations=3, target_runtime_s=1e9,
            ei_stop_fraction=None,
        ))
        assert result.n_evaluations == 3

    def test_ei_stopping_rule_can_end_early(self, cluster):
        session = _session(cluster, tuner_cls=BayesOptTuner, n_init=6)
        result = session.run(SessionConfig(
            budget=40, min_evaluations=10, ei_stop_fraction=0.5,
        ))
        # With such a lax EI threshold the session stops before exhausting
        # the budget (CherryPick's stop-when-converged behaviour).
        assert result.n_evaluations < 40

    def test_min_evaluations_enforced(self, cluster):
        session = _session(cluster, tuner_cls=BayesOptTuner, n_init=4)
        result = session.run(SessionConfig(
            budget=20, min_evaluations=12, ei_stop_fraction=10.0,
            target_runtime_s=1e9,
        ))
        assert result.n_evaluations >= 12
