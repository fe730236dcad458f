"""Tests for the task scheduler (makespan, stragglers, speculation)."""

import numpy as np
import pytest

from repro.config import Configuration, SPARK_DEFAULTS
from repro.sparksim.scheduler import _list_schedule
from tests.oracles import schedule_stage


def _config(**overrides):
    cfg = dict(SPARK_DEFAULTS)
    cfg.update(overrides)
    return Configuration(cfg)


class TestListSchedule:
    def test_fewer_tasks_than_slots(self):
        assert _list_schedule(np.array([3.0, 1.0, 2.0]), slots=8) == 3.0

    def test_perfect_packing(self):
        assert _list_schedule(np.full(8, 1.0), slots=4) == pytest.approx(2.0)

    def test_greedy_bound(self):
        # Makespan is between work/slots and work/slots + max task.
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 2.0, 100)
        m = _list_schedule(d, slots=7)
        assert d.sum() / 7 <= m <= d.sum() / 7 + d.max()


class TestScheduleStage:
    def test_deterministic_without_noise(self, rng):
        s = schedule_stage(64, 2.0, slots=16, config=_config(), rng=rng, noise=False)
        assert s.makespan_s == pytest.approx(8.0)

    def test_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            schedule_stage(0, 1.0, 4, _config(), rng)
        with pytest.raises(ValueError):
            schedule_stage(4, 1.0, 0, _config(), rng)
        with pytest.raises(ValueError):
            schedule_stage(4, -1.0, 4, _config(), rng)

    def test_noise_reproducible_by_seed(self):
        a = schedule_stage(50, 1.0, 8, _config(), np.random.default_rng(5))
        b = schedule_stage(50, 1.0, 8, _config(), np.random.default_rng(5))
        assert a.makespan_s == b.makespan_s

    def test_more_slots_never_slower(self):
        m = []
        for slots in [4, 16, 64]:
            s = schedule_stage(128, 1.0, slots, _config(), np.random.default_rng(1))
            m.append(s.makespan_s)
        assert m[0] > m[1] > m[2]

    def test_task_metrics_sane(self):
        s = schedule_stage(200, 1.0, 16, _config(), np.random.default_rng(2))
        tm = s.task_metrics
        assert tm.count == 200
        assert tm.p50_s <= tm.p95_s <= tm.max_s
        assert tm.mean_s == pytest.approx(1.0, rel=0.2)

    def test_speculation_clips_tail(self):
        # With many tasks the straggler tail should shrink under speculation.
        base_cfg = _config(**{"spark.speculation": False})
        spec_cfg = _config(**{"spark.speculation": True,
                              "spark.speculation.multiplier": 1.5,
                              "spark.speculation.quantile": 0.75})
        base_max, spec_max = [], []
        for seed in range(20):
            base = schedule_stage(400, 1.0, 32, base_cfg, np.random.default_rng(seed))
            spec = schedule_stage(400, 1.0, 32, spec_cfg, np.random.default_rng(seed))
            base_max.append(base.task_metrics.max_s)
            spec_max.append(spec.task_metrics.max_s)
        assert np.mean(spec_max) < np.mean(base_max)

    def test_speculation_reports_waste(self):
        cfg = _config(**{"spark.speculation": True,
                         "spark.speculation.multiplier": 1.2,
                         "spark.speculation.quantile": 0.5})
        out = [schedule_stage(400, 1.0, 32, cfg, np.random.default_rng(s))
               for s in range(10)]
        assert any(o.speculated_tasks > 0 for o in out)
        assert all(o.wasted_task_seconds >= 0 for o in out)
