"""Tests for the multi-tenant service layer (repro.core.serviced)."""

import asyncio
import math
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.cloud.cluster import Cluster
from repro.cloud.pricing import CostLedger
from repro.core import HistoryStore, SLOMetric, TuningService, TuningSLO
from repro.core.histlog import HistoryLog
from repro.core.serviced import (
    REJECT_BUDGET,
    REJECT_QUEUE_FULL,
    REJECT_TENANT_CAP,
    AdmissionController,
    RunBatchRequest,
    ServiceFrontEnd,
    ShardPool,
    SLOPriorityScheduler,
    SubmitOutcome,
    TenantBudget,
    TuneRequest,
    shard_index,
    workload_fingerprint,
)
from repro.core.serviced import loadgen
from repro.core.serviced.loadgen import LoadScenario, run_load
from repro.core.slo import evaluate_slo
from repro.tuning.random_search import RandomSearchTuner
from repro.workloads import PageRank, Sort, Wordcount


class TestAdmission:
    def test_queue_full_rejected_with_reason(self):
        ctl = AdmissionController(max_pending=2, per_tenant_inflight=5)
        assert ctl.try_admit("a")
        assert ctl.try_admit("b")
        decision = ctl.try_admit("c")
        assert not decision and decision.reason == REJECT_QUEUE_FULL
        ctl.release("a")
        assert ctl.try_admit("c")

    def test_per_tenant_cap(self):
        ctl = AdmissionController(max_pending=100, per_tenant_inflight=2)
        assert ctl.try_admit("a") and ctl.try_admit("a")
        decision = ctl.try_admit("a")
        assert not decision and decision.reason == REJECT_TENANT_CAP
        assert ctl.try_admit("b")          # other tenants unaffected

    def test_budget_rejection_and_stats(self):
        ctl = AdmissionController()
        decision = ctl.try_admit("a", budget_exhausted=True)
        assert not decision and decision.reason == REJECT_BUDGET
        ctl.try_admit("a")
        assert ctl.counters() == {"pending": 1, "n_admitted": 1,
                                  f"n_rejected.{REJECT_BUDGET}": 1}

    def test_unmatched_release_raises(self):
        ctl = AdmissionController()
        with pytest.raises(RuntimeError):
            ctl.release("ghost")


class TestTenantBudget:
    def test_exhaustion_and_headroom(self):
        budget = TenantBudget("t", max_tuning_cost=10.0)
        assert budget.remaining_fraction == 1.0
        budget.charge(7.5)
        assert budget.remaining_fraction == pytest.approx(0.25)
        assert not budget.exhausted
        budget.charge(5.0)
        assert budget.exhausted
        assert budget.remaining_fraction == 0.0

    def test_attainment_from_reports(self):
        budget = TenantBudget(
            "t", slo=TuningSLO(SLOMetric.WITHIN_OPTIMAL, 0.2),
        )
        assert budget.attainment == 1.0
        budget.note_report(evaluate_slo(budget.slo, 130.0, 100.0))  # missed
        budget.note_report(evaluate_slo(budget.slo, 110.0, 100.0))  # attained
        assert budget.slo_missed == 1 and budget.slo_attained == 1
        assert budget.attainment == pytest.approx(0.5)


#: the scheduler's request classes, as ``SubmitOutcome.kind`` names them
TUNE, RUNS = "tune", "runs"


@dataclass(frozen=True)
class _Queued:
    """A queued stand-in for the front end's entry: a name and a class."""

    name: str
    kind: str


class TestScheduler:
    def test_slo_deficit_jumps_the_queue(self):
        sched = SLOPriorityScheduler()
        happy = TenantBudget("happy")
        unhappy = TenantBudget("unhappy")
        unhappy.slo_missed = 3
        sched.push("happy-job", shard=0, budget=happy)
        sched.push("unhappy-job", shard=0, budget=unhappy)
        shard, item = sched.pop_ready()
        assert item == "unhappy-job"

    def test_headroom_breaks_ties(self):
        sched = SLOPriorityScheduler()
        rich = TenantBudget("rich", max_tuning_cost=100.0)
        poor = TenantBudget("poor", max_tuning_cost=100.0)
        poor.charge(90.0)
        sched.push("poor-job", shard=0, budget=poor)
        sched.push("rich-job", shard=0, budget=rich)
        assert sched.pop_ready()[1] == "rich-job"

    def test_fifo_for_equal_priority(self):
        sched = SLOPriorityScheduler()
        sched.push("first", shard=0)
        sched.push("second", shard=0)
        assert sched.pop_ready()[1] == "first"
        assert sched.pop_ready()[1] == "second"

    def test_busy_shards_are_skipped_not_dropped(self):
        sched = SLOPriorityScheduler()
        urgent = TenantBudget("urgent")
        urgent.slo_missed = 5
        sched.push("pinned-urgent", shard=1, budget=urgent)
        sched.push("elsewhere", shard=2)
        # shard 1 busy: the urgent item stays queued, shard 2's item runs
        assert sched.pop_ready(busy_shards={1}) == (2, "elsewhere")
        # shard 1 frees up: the urgent item is still there, at priority
        assert sched.pop_ready() == (1, "pinned-urgent")
        assert sched.pop_ready() is None

    def test_tune_runs_before_a_missed_slo_tenants_ingest(self):
        sched = SLOPriorityScheduler()
        missed = TenantBudget("missed")
        missed.slo_missed = 5
        sched.push(_Queued("ingest", RUNS), shard=0, budget=missed)
        sched.push(_Queued("tune", TUNE), shard=0, budget=TenantBudget("new"))
        assert sched.pop_ready()[1].name == "tune"
        assert sched.pop_ready()[1].name == "ingest"

    def test_ingest_batches_pop_fifo_whatever_the_deficit(self):
        sched = SLOPriorityScheduler()
        happy, missed = TenantBudget("happy"), TenantBudget("missed")
        missed.slo_missed = 5
        sched.push(_Queued("first", RUNS), shard=0, budget=happy)
        sched.push(_Queued("second", RUNS), shard=0, budget=missed)
        sched.push(_Queued("third", RUNS), shard=0, budget=happy)
        assert [sched.pop_ready()[1].name for _ in range(3)] == \
            ["first", "second", "third"]

    def test_backlogged_classes_alternate_by_served_seconds(self):
        sched = SLOPriorityScheduler()
        for i in range(3):
            sched.push(_Queued(f"tune-{i}", TUNE), shard=0)
            sched.push(_Queued(f"runs-{i}", RUNS), shard=0)
        served = {"tune-0": 1.0, "tune-1": 1.0, "tune-2": 1.0,
                  "runs-0": 0.5, "runs-1": 0.5, "runs-2": 0.5}
        order = []
        while (popped := sched.pop_ready()) is not None:
            item = popped[1]
            order.append(item.name)
            sched.note_served(item.kind, served[item.name])
        # a 1 s tune buys two 0.5 s ingest batches; ties go to tunes
        assert order == ["tune-0", "runs-0", "runs-1", "tune-1", "runs-2",
                         "tune-2"]
        counters = sched.counters()
        assert counters[f"served_s.{TUNE}"] == 3.0
        assert counters[f"served_s.{RUNS}"] == 1.5

    def test_a_class_reentering_after_idling_banks_no_credit(self):
        sched = SLOPriorityScheduler()
        for name in ("runs-0", "runs-1", "runs-2"):
            sched.push(_Queued(name, RUNS), shard=0)
        # no tunes queued: ingest runs, 5 s per batch
        for name in ("runs-0", "runs-1"):
            assert sched.pop_ready()[1].name == name
            sched.note_served(RUNS, 5.0)
        # tunes re-enter at the ingest class's 10 s, not at their idle 0 s
        sched.push(_Queued("tune-0", TUNE), shard=0)
        sched.push(_Queued("tune-1", TUNE), shard=0)
        counters = sched.counters()
        assert counters[f"served_s.{TUNE}"] == counters[f"served_s.{RUNS}"] \
            == 10.0
        assert sched.pop_ready()[1].name == "tune-0"
        sched.note_served(TUNE, 1.0)
        # with 10 s of idle credit, tune-1 would run next
        assert sched.pop_ready()[1].name == "runs-2"
        assert sched.pop_ready()[1].name == "tune-1"

    def test_busy_shards_are_skipped_not_dropped_across_classes(self):
        sched = SLOPriorityScheduler()
        sched.push(_Queued("tune", TUNE), shard=1)
        sched.push(_Queued("runs-0", RUNS), shard=2)
        # the tunes' turn, but shard 1 is busy: ingest on shard 2 runs
        popped = sched.pop_ready({1})
        assert (popped[0], popped[1].name) == (2, "runs-0")
        sched.note_served(RUNS, 1.0)
        sched.push(_Queued("runs-1", RUNS), shard=2)
        sched.push(_Queued("runs-2", RUNS), shard=1)
        # shard 1 frees and shard 2 is busy: the tune is still queued
        popped = sched.pop_ready({2})
        assert (popped[0], popped[1].name) == (1, "tune")
        sched.note_served(TUNE, 0.5)
        # tunes are empty; ingest keeps its order across the busy shard
        popped = sched.pop_ready({1})
        assert (popped[0], popped[1].name) == (2, "runs-1")
        popped = sched.pop_ready()
        assert (popped[0], popped[1].name) == (1, "runs-2")
        assert sched.pop_ready() is None and len(sched) == 0


class TestFingerprints:
    def test_submission_fingerprint_stable_and_name_sensitive(self):
        wc, pr = Wordcount(), PageRank()
        assert workload_fingerprint(wc, 1000) == workload_fingerprint(wc, 1000)
        assert workload_fingerprint(wc, 1000) != workload_fingerprint(pr, 1000)
        # same decade -> same shard placement; different decade -> different
        assert workload_fingerprint(wc, 1000) == workload_fingerprint(wc, 5000)
        assert workload_fingerprint(wc, 1000) != workload_fingerprint(wc, 100)

    def test_shard_index_in_range(self):
        fp = workload_fingerprint(Wordcount(), 1000)
        for n in (1, 2, 7):
            assert 0 <= shard_index(fp, n) < n

    def test_fingerprints_and_shards_match_known_answers(self):
        """Routing must agree across processes and runs, not only within
        one: a digest that folds in process state (a first-seen index, a
        salted ``hash``) passes every same-process comparison above."""
        wc, pr = Wordcount(), PageRank()
        cases = [
            (workload_fingerprint(wc, 1000), "c0234f5cdbecd371", [1, 1, 2]),
            (workload_fingerprint(pr, 12000), "777443447ca08800", [0, 0, 5]),
            (workload_fingerprint(wc, 100), "2bc2afd47933818c", [0, 0, 0]),
        ]
        for fingerprint, expected, shards in cases:
            assert fingerprint == expected
            assert [shard_index(fingerprint, n) for n in (2, 4, 7)] == shards


class TestShardPoolRunner:
    """One runner thread executes every shard's jobs, in submission order.

    Shards here are stand-in services (the factory returns the shard
    index), which is all the runner hands its jobs.
    """

    @staticmethod
    def _close(pool):
        closer = threading.Thread(target=pool.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert not pool._runner.is_alive()

    def test_jobs_on_different_shards_run_in_submission_order(self):
        pool = ShardPool(3, lambda i: i)
        started, gate, ran = threading.Event(), threading.Event(), []

        def first(shard):
            started.set()
            assert gate.wait(timeout=30)
            ran.append(("first", shard))

        try:
            futures = [pool.submit(0, first)]
            assert started.wait(timeout=30)
            # Queued behind a blocked job on shard 0: with a thread per
            # shard, the shard 1 and 2 jobs would overtake it.
            futures += [pool.submit(i % 3, lambda shard, i=i: ran.append(
                (i, shard))) for i in range(12)]
            time.sleep(0.05)
            gate.set()
            for future in futures:
                future.result(timeout=30)
        finally:
            self._close(pool)
        assert ran == [("first", 0)] + [(i, i % 3) for i in range(12)]
        assert [s.n_jobs for s in pool._shards] == [5, 4, 4]

    def test_never_two_jobs_in_flight(self):
        pool = ShardPool(4, lambda i: i)
        lock, state = threading.Lock(), {"now": 0, "max": 0}

        def job(shard):
            with lock:
                state["now"] += 1
                state["max"] = max(state["max"], state["now"])
            time.sleep(0.001)
            with lock:
                state["now"] -= 1

        try:
            futures = [pool.submit(i % 4, job) for i in range(40)]
            for future in futures:
                future.result(timeout=30)
        finally:
            self._close(pool)
        assert state == {"now": 0, "max": 1}

    def test_failing_job_reaches_its_future_and_the_next_job_runs(self):
        pool = ShardPool(2, lambda i: i)

        def boom(shard):
            raise ValueError(f"boom on shard {shard}")

        try:
            failed = pool.submit(1, boom)
            after = pool.submit(1, lambda shard: shard * 10)
            with pytest.raises(ValueError, match="boom on shard 1"):
                failed.result(timeout=30)
            assert after.result(timeout=30) == 10
        finally:
            self._close(pool)
        assert pool._shards[1].n_jobs == 2

    def test_close_runs_every_queued_job_before_joining(self):
        pool = ShardPool(2, lambda i: i)
        gate = threading.Event()
        blocked = pool.submit(0, lambda shard: gate.wait(timeout=30))
        queued = [pool.submit(i % 2, lambda shard, i=i: (i, shard))
                  for i in range(10)]
        closer = threading.Thread(target=pool.close)
        closer.start()
        deadline = time.monotonic() + 30
        while not pool._closed and time.monotonic() < deadline:
            time.sleep(0.001)
        assert pool._closed                  # close() began with jobs queued
        assert not any(f.done() for f in queued)
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert not pool._runner.is_alive()
        assert blocked.result(timeout=0) is True
        assert [f.result(timeout=0) for f in queued] == \
            [(i, i % 2) for i in range(10)]

    def test_submit_after_close_raises(self):
        pool = ShardPool(2, lambda i: i)
        self._close(pool)
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, lambda shard: shard)
        pool.close()                          # idempotent


def _stack(n_shards=2, **admission_kw):
    log = HistoryLog()
    ledgers = [CostLedger() for _ in range(n_shards)]

    def factory(i):
        return TuningService(store=HistoryStore(log), ledger=ledgers[i],
                             executor="serial", seed=50 + i)

    pool = ShardPool(n_shards, factory)
    frontend = ServiceFrontEnd(
        pool, admission=AdmissionController(**admission_kw)
        if admission_kw else None,
    )
    return frontend, pool, HistoryStore(log), ledgers


def _tune_request(tenant="t1", workload=None, **kw):
    return TuneRequest(
        tenant=tenant, workload=workload or Wordcount(), input_mb=2_000,
        cluster=Cluster.of("m5.xlarge", 4), disc_budget=3,
        use_transfer=False, batch_size=3,
        tuner_factory=lambda service, seed: RandomSearchTuner(
            service.disc_space, seed=seed),
        **kw,
    )


class TestFrontEnd:
    def test_tune_and_ingest_end_to_end(self):
        frontend, pool, store, ledgers = _stack()

        async def scenario():
            outcome = await frontend.submit(_tune_request())
            assert outcome.accepted and outcome.kind == "tune"
            assert outcome.deployment is not None
            assert outcome.latency_s > 0
            runs = await frontend.submit(RunBatchRequest(
                tenant="t1", deployment=outcome.deployment,
                input_mb=2_000, n_runs=7,
            ))
            assert runs.accepted and runs.runs_submitted == 7
            await frontend.close()
            return outcome

        try:
            outcome = asyncio.run(scenario())
        finally:
            pool.close()
        # probe + 3 evaluations + 7 production runs, all in the shared log
        assert len(store) == 4 + 7
        assert sum(ledger.production_runs for ledger in ledgers) == 7
        assert outcome.deployment.tuning_evaluations == 4
        # each job's runner seconds reached its class, budget or not
        counters = frontend.scheduler.counters()
        assert counters[f"served_s.{TUNE}"] > 0
        assert counters[f"served_s.{RUNS}"] > 0

    def test_same_fingerprint_tenants_share_a_shard_and_its_cache(self):
        frontend, pool, store, _ = _stack(n_shards=2)

        async def scenario():
            a = await frontend.submit(_tune_request(tenant="a"))
            b = await frontend.submit(_tune_request(tenant="b"))
            await frontend.close()
            return a, b

        try:
            a, b = asyncio.run(scenario())
        finally:
            pool.close()
        assert a.shard == b.shard
        # both tenants probed with the same canonical config on the same
        # cluster: the second probe is a warm-cache answer on that shard
        assert pool.service_of(a.shard).counters()["engine.hits"] >= 1

    def test_budget_exhaustion_rejects_next_submission(self):
        frontend, pool, _, _ = _stack()
        frontend.register_budget(
            TenantBudget("t1", max_tuning_cost=1e-9)
        )

        async def scenario():
            first = await frontend.submit(_tune_request())
            second = await frontend.submit(_tune_request())
            await frontend.close()
            return first, second

        try:
            first, second = asyncio.run(scenario())
        finally:
            pool.close()
        assert first.accepted                      # budget spent by this one
        assert frontend.budget_of("t1").spent_cost > 0
        assert not second.accepted
        assert second.reason == REJECT_BUDGET

    def test_tenant_inflight_cap_rejects_concurrent_burst(self):
        frontend, pool, _, _ = _stack(per_tenant_inflight=1, max_pending=64)

        async def scenario():
            outcomes = await asyncio.gather(*[
                frontend.submit(_tune_request()) for _ in range(3)
            ])
            await frontend.close()
            return outcomes

        try:
            outcomes = asyncio.run(scenario())
        finally:
            pool.close()
        accepted = [o for o in outcomes if o.accepted]
        rejected = [o for o in outcomes if not o.accepted]
        assert len(accepted) == 1
        assert {o.reason for o in rejected} == {REJECT_TENANT_CAP}

    def test_counters_have_all_layers(self):
        frontend, pool, _, _ = _stack()
        pool.close()                 # the runner's state is read after close
        layers = {key.split(".")[0] for key in frontend.counters()}
        assert layers == {"admission", "scheduler", "shard0", "shard1",
                          "distinct_fingerprints", "engine", "simulator"}


class TestTelemetrySurface:
    """Every service object reports flat counters, and the front end's
    engine, simulator and phase counters are its shards' sums."""

    def test_counters_are_flat_and_the_pool_sums_its_shards(self):
        frontend, pool, _, _ = _stack(n_shards=2)
        tenants = [("a", Wordcount()), ("b", Sort()), ("c", Wordcount())]

        async def scenario():
            for tenant, workload in tenants:
                tuned = await frontend.submit(_tune_request(tenant, workload))
                assert tuned.accepted
                batches = await asyncio.gather(*[
                    frontend.submit(RunBatchRequest(
                        tenant=tenant, deployment=tuned.deployment,
                        input_mb=2_000, n_runs=4,
                    )) for _ in range(2)
                ])
                assert all(b.accepted for b in batches)
            await frontend.close()

        try:
            asyncio.run(scenario())
        finally:
            pool.close()
        counters = frontend.counters()
        services = [pool.service_of(i).counters() for i in range(2)]
        for flat in (counters, *services):
            for key, value in flat.items():
                assert isinstance(key, str)
                assert type(value) in (int, float), (key, value)
                assert math.isfinite(value), key
        summed = {key for flat in services for key in flat
                  if key.split(".")[0] in ("engine", "simulator", "phase")}
        assert {"engine.hits", "simulator.plan_cache_misses",
                "phase.ingest.seconds"} <= summed
        for key in summed:
            assert counters[key] == sum(flat.get(key, 0) for flat in services)
        assert not any(key.startswith("index.") for key in counters)
        for flat in services:
            assert flat["engine.n_requested"] > 0
            assert flat["engine.hits"] + flat["engine.misses"] == \
                flat["engine.n_requested"]
        jobs = [counters["shard0.jobs"], counters["shard1.jobs"]]
        assert all(jobs)
        assert sum(jobs) == counters["scheduler.n_popped"] \
            == counters["admission.n_admitted"] == 3 * 3


class TestLoadGenerator:
    def test_small_scenario_accounting(self):
        scenario = LoadScenario(
            n_tenants=8, n_workload_families=2, runs_per_tenant=5,
            ingest_batches=1, n_shards=2, disc_budget=3,
            max_pending=16, per_tenant_inflight=2, seed=4,
        )
        report = run_load(scenario)
        assert report.tenants_deployed + report.tenants_denied == 8
        assert report.tenants_deployed == 8       # retries absorb rejections
        assert report.runs_submitted == 8 * 5
        assert report.runs_per_s > 0
        assert report.tune_latency_p99_s >= report.tune_latency_p50_s > 0
        # every execution is in the shared history: (probe + budget) per
        # tune session plus every production run
        assert report.history_records == 8 * (1 + 3) + 8 * 5
        assert report.production_cost_usd > 0
        assert report.tuning_cost_usd > 0
        # one tune and one ingest batch per tenant, in flat counters
        counters = report.counters
        assert counters["scheduler.n_popped"] == 8 * 2
        assert "index.records_indexed" in counters
        assert all(type(v) in (int, float) for v in counters.values())

    def test_tune_latency_counts_rejected_attempts(self):
        """A tune admitted on its third attempt is timed from its first:
        the rejected attempts and their backoff are latency too."""
        scenario = LoadScenario(n_tenants=1, runs_per_tenant=2,
                                ingest_batches=1, retry_backoff_s=0.05)
        deployment = SimpleNamespace(slo_report=None)
        attempts = []

        class FrontEnd:
            async def submit(self, request):
                if isinstance(request, RunBatchRequest):
                    return SubmitOutcome(request.tenant, "runs", True,
                                         runs_submitted=request.n_runs)
                attempts.append(request)
                if len(attempts) < 3:
                    return SubmitOutcome(request.tenant, "tune", False,
                                         reason=REJECT_QUEUE_FULL)
                return SubmitOutcome(request.tenant, "tune", True,
                                     deployment=deployment, latency_s=1e-6)

        totals = {"deployed": 0, "denied": 0, "runs": 0, "slo_attained": 0,
                  "slo_missed": 0, "tune_latencies": []}
        asyncio.run(loadgen._tenant(FrontEnd(), scenario, 0, Wordcount(),
                                    totals))
        assert len(attempts) == 3 and totals["runs"] == 2
        # backoff ramps: 0.05 s after the first reject, 0.10 s after the
        # second
        assert totals["tune_latencies"][0] >= 0.15

    def test_budget_cap_denies_spendy_tenants(self):
        scenario = LoadScenario(
            n_tenants=4, n_workload_families=1, runs_per_tenant=4,
            ingest_batches=1, n_shards=1, disc_budget=3,
            max_tuning_cost_usd=1e-9, seed=9,
        )
        report = run_load(scenario)
        # tuning itself is admitted (budget spends on completion), but
        # the follow-up ingest finds the budget gone
        assert report.counters[f"admission.n_rejected.{REJECT_BUDGET}"] > 0
