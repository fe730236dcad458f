"""The DISC stage's tuning session (``TuningService.tune_disc``): budget,
recording, charging and the EI stop rule of the service's campaign loop."""

from repro.cloud.cluster import Cluster
from repro.core import TuningService
from repro.tuning import BayesOptTuner, RandomSearchTuner
from repro.workloads import Wordcount

CLUSTER = Cluster.of("m5.xlarge", 4)
INPUT_MB = 20_000


def _tune(budget, batch_size=1, random_search=False):
    service = TuningService(seed=9)
    tuner = (
        RandomSearchTuner(service.disc_space, seed=1, include_default=False)
        if random_search else None
    )
    result, _, _ = service.tune_disc(
        "t", "wc", Wordcount(), INPUT_MB, CLUSTER, budget=budget,
        use_transfer=False, batch_size=batch_size, tuner=tuner,
    )
    return service, result


def _stop_rule(monkeypatch, answer, consulted_at=None):
    """Patch CherryPick's rule to ``answer``; note the evaluations seen
    (the tuner's history minus the probe) at every consult."""
    def should_stop(self, ei_fraction=0.1):
        if consulted_at is not None:
            consulted_at.append(len(self.history) - 1)
        return answer

    monkeypatch.setattr(BayesOptTuner, "should_stop", should_stop)


class TestRun:
    def test_respects_budget(self):
        # batch 3 takes chunks of 3, 3 and 1: the last through suggest()
        for batch_size in (1, 3):
            service, result = _tune(7, batch_size=batch_size)
            assert result.n_evaluations == 1 + 7      # the probe first
            assert len(service.store) == 1 + 7

    def test_records_every_evaluation(self):
        service, result = _tune(7, batch_size=3)
        records = service.store.for_workload("t", "wc")
        assert len(records) == 1 + 7
        # recorded once each, as the tuner proposed it (not as resolved)
        for record, obs in zip(records[1:], result.history[1:]):
            assert record.config == obs.config
            assert set(record.config) == set(service.disc_space.names)
            assert record.success == obs.succeeded
            assert record.cluster == CLUSTER.describe()

    def test_ledger_charged(self):
        service, result = _tune(7, random_search=True)
        assert service.ledger.tuning_runs == result.n_evaluations == 1 + 7
        assert service.engine.n_evaluated == 1 + 7

    def test_ei_stopping_rule_can_end_early(self, monkeypatch):
        _stop_rule(monkeypatch, True)
        for budget, stopped_at in ((25, 10), (6, 6)):
            _, result = _tune(budget)
            assert result.n_evaluations == 1 + stopped_at

    def test_min_evaluations_enforced(self, monkeypatch):
        consulted_at: list[int] = []
        _stop_rule(monkeypatch, True, consulted_at)
        # chunks of 3: the first boundary at or past min(10, 25) is 12
        _, result = _tune(25, batch_size=3)
        assert result.n_evaluations == 1 + 12
        assert consulted_at == [12]

    def test_spends_the_whole_budget_while_the_rule_does_not_hold(
        self, monkeypatch,
    ):
        consulted_at: list[int] = []
        _stop_rule(monkeypatch, False, consulted_at)
        _, result = _tune(14)
        assert result.n_evaluations == 1 + 14
        assert consulted_at == [10, 11, 12, 13, 14]
