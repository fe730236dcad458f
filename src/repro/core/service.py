"""The seamless tuning service — the paper's vision, end to end.

Implements Fig. 1's two-stage flow as a provider-side service with the
four principles of Section IV:

1. *Seamlessness*: :meth:`TuningService.submit` takes a workload and an
   SLO; cluster choice, DISC configuration, probing and model choice are
   invisible to the tenant.
2. *Resilience to change*: :meth:`run_production` monitors recurring
   executions with a drift detector and re-tunes automatically when the
   workload (input size) or environment (interference) shifts.
3. *Bounded user cost*: exploratory executions are charged to a
   provider-side ledger; sessions stop early via CherryPick's EI rule;
   similar workloads' history warm-starts new tenants' models.
4. *Tuning-effectiveness SLOs*: every deployment carries an SLO report
   comparing achieved runtime against the chosen reference.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..cloud.cluster import Cluster
from ..cloud.interference import QUIET, InterferenceModel
from ..cloud.pricing import CostLedger
from ..config.cloud_params import cloud_space
from ..config.space import Configuration, ConfigurationSpace
from ..config.spark_params import spark_core_space
from ..engine import EngineObjective, EvaluationEngine
from ..sparksim.simulator import SparkSimulator
from ..tuning.base import Tuner, TuningResult, run_tuner_batched
from ..tuning.bo.bayesopt import BayesOptTuner
from .characterization import probe_configuration, signature
from .history import HistoryStore
from .profiling import PhaseProfiler
from .retuning import DriftDetector, PageHinkleyDetector
from .session import SessionConfig, TuningSession
from .slo import SLOMetric, SLOReport, TuningSLO, evaluate_slo
from .transfer import build_transfer_plan

__all__ = ["Deployment", "ProductionRun", "TuningService"]

#: distance between the first seeds of consecutive sessions
_SEED_STRIDE = 7919


@dataclass
class Deployment:
    """A tuned workload deployment handed back to the tenant."""

    tenant: str
    workload_label: str
    workload: object
    input_mb: float
    cluster: Cluster
    config: Configuration
    expected_runtime_s: float
    slo_report: SLOReport | None
    tuning_evaluations: int
    transferred_from: list[str] = field(default_factory=list)
    retuned_count: int = 0


@dataclass(frozen=True)
class ProductionRun:
    """One production execution plus any service action taken.

    The failure-policy fields audit how the service treated the run:
    whether its runtime entered the drift detector (only successful runs
    do — a crash's penalized runtime would poison the statistics), the
    consecutive-failure count after this run, and why a re-tune fired
    (``"drift"`` from the detector, ``"failures"`` from the
    consecutive-failure policy, or ``None``).
    """

    index: int
    runtime_s: float
    success: bool
    input_mb: float
    retuned: bool
    detector_fed: bool = False
    consecutive_failures: int = 0
    retune_reason: str | None = None


class TuningService:
    """Provider-side seamless configuration tuning (Fig. 1 realized)."""

    def __init__(self, provider: str = "aws",
                 simulator: SparkSimulator | None = None,
                 disc_space: ConfigurationSpace | None = None,
                 interference_level: float = 0.0,
                 engine: EvaluationEngine | None = None,
                 executor: str = "serial",
                 store: HistoryStore | None = None,
                 ledger: CostLedger | None = None,
                 seed: int = 0):
        self.provider = provider
        self.simulator = simulator or SparkSimulator()
        self.disc_space = disc_space or spark_core_space()
        self.cloud_space = cloud_space(provider)
        #: injectable so several service shards can share one provider
        #: history log and one billing ledger (both are thread-safe)
        self.store = store if store is not None else HistoryStore()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.seed = seed
        self._session_counter = 0
        # Session seeds must be collision-free under the concurrent front
        # end: two sessions sharing a seed would draw identical candidate
        # streams and masquerade as cross-tenant amortization.
        self._seed_lock = threading.Lock()
        self.interference = (
            InterferenceModel(level=interference_level, seed=seed)
            if interference_level > 0 else None
        )
        #: all exploratory executions ride one engine, so identical
        #: candidates across sessions and tenants are answered from the
        #: memoization cache — the provider amortizes tuning cost
        #: (paper principle 3) and the counters quantify it.  Caveat:
        #: with ``interference_level > 0`` each evaluation samples its
        #: own environment, and the environment is part of the cache
        #: key, so cross-session repeats of a candidate re-simulate;
        #: the engine's ``n_env_distinct_misses`` counter measures that
        #: lost amortization.
        self.engine = engine or EvaluationEngine(
            simulator=self.simulator, executor=executor,
        )
        #: per-phase wall-time split of this service's hot path —
        #: suggest (surrogate + acquisition), evaluate (simulator),
        #: ingest (production recording), similarity (transfer + SLO
        #: reference).  Thread-safe for any caller.
        self.profiler = PhaseProfiler()

    def _next_seed(self, n_runs: int = 1) -> int:
        """First seed of a fresh block of ``n_runs`` consecutive seeds.

        Sessions sit ``_SEED_STRIDE`` apart, and a caller seeding run
        ``i`` with ``seed + i`` owns its block, so a block longer than one
        stride reserves as many session slots as it spans — otherwise the
        next session's runs would replay this block's noise streams.
        """
        slots = max(1, -(-n_runs // _SEED_STRIDE))
        with self._seed_lock:
            first = self._session_counter + 1
            self._session_counter += slots
            return self.seed + _SEED_STRIDE * first

    def engine_counters(self) -> dict[str, float]:
        """Hit/miss/latency counters of the shared evaluation engine."""
        return self.engine.counters()

    def counters(self) -> dict:
        """One telemetry snapshot: engine, per-phase time, index state."""
        return {
            "engine": self.engine.counters(),
            "phases": self.profiler.snapshot(),
            "signature_index": self.store.index().counters(),
        }

    # --- stage 1: cloud configuration ------------------------------------
    def tune_cloud(self, workload, input_mb: float, budget: int = 12,
                   metric: str = "price") -> tuple[Cluster, int]:
        """Pick instance type + cluster size (CherryPick-style BO).

        Returns the provisioned cluster and the evaluations spent.
        """
        seed = self._next_seed()
        objective = EngineObjective(
            self.engine, workload, input_mb, cluster=None,
            base_config=dict(probe_configuration()),
            interference=self.interference,
            # Per-config seeding keys the noise to the candidate, so the
            # same candidate re-proposed in any session is a cache hit.
            ledger=self.ledger, metric=metric, seed=self.seed,
            # The probe's executor sizing is repaired per candidate
            # cluster: stage 1 compares clusters, not crash behaviour.
            repair=True,
        )
        n_init = min(6, budget)
        tuner = BayesOptTuner(self.cloud_space, seed=seed, n_init=n_init)
        evaluations = 0
        for i in range(budget):
            with self.profiler.phase("suggest"):
                config = tuner.suggest()
            with self.profiler.phase("evaluate"):
                cost = objective(config)
            tuner.observe(config, cost)
            evaluations += 1
            # Consult the EI stop rule as soon as the initial design is
            # observed — n_init is the tuner's actual design size, not a
            # hard-coded 6, so small budgets get the rule too.
            if evaluations >= n_init and tuner.should_stop(0.05):
                break
        best = tuner.best.config
        cluster = Cluster.of(best["cloud.instance_type"], int(best["cloud.cluster_size"]))
        return cluster, evaluations

    # --- stage 2: DISC configuration ------------------------------------------
    def tune_disc(self, tenant: str, workload_label: str, workload,
                  input_mb: float, cluster: Cluster, budget: int = 25,
                  use_transfer: bool = True,
                  batch_size: int = 1,
                  tuner: Tuner | None = None) -> tuple[TuningSession, list[str]]:
        """Tune the Spark configuration, warm-started from similar history.

        ``tuner`` overrides the default Bayesian optimizer — the service
        layer uses this to run lightweight (e.g. random-search) sessions
        under load; transfer observations are then injected through the
        tuner's plain ``observe`` protocol.
        """
        seed = self._next_seed()
        objective = EngineObjective(
            self.engine, workload, input_mb, cluster=cluster,
            interference=self.interference, ledger=self.ledger,
            # Service-level seed + per-config noise: identical candidates
            # across sessions/tenants are cache hits (amortization) — in
            # quiet environments; under interference the sampled env joins
            # the cache key and such repeats re-simulate (tracked by the
            # engine's n_env_distinct_misses counter).
            seed=self.seed,
            # The service repairs obviously-unsatisfiable executor sizing
            # before launching (a competent operator never requests 4-core
            # executors on 2-core nodes); genuinely bad-but-launchable
            # configurations still run and still crash.
            repair=True,
        )
        # Probe to characterize, then look for transferable knowledge.
        with self.profiler.phase("evaluate"):
            probe_cost = objective(probe_configuration())
        probe_result = objective.last_result
        sig = signature(probe_result)
        # Record the probe exactly as it launched (fully resolved and
        # repaired): the tuner observes the post-repair projection below,
        # and a history entry for a configuration that never ran would
        # poison every transfer warm-start replaying it.
        _, probe_as_run = objective.resolve(probe_configuration())
        self.store.record(
            tenant, workload_label, input_mb, cluster.describe(),
            probe_as_run, probe_result, sig,
        )
        warm_start, sources = [], []
        if use_transfer:
            with self.profiler.phase("similarity"):
                plan = build_transfer_plan(
                    self.store, sig, self.disc_space,
                    exclude=(tenant, workload_label),
                    target_scale_runtime=probe_cost,
                )
            warm_start = plan.observations
            sources = [f"{s.tenant}/{s.workload_label}" for s in plan.sources]
        if tuner is None:
            tuner = BayesOptTuner(
                self.disc_space, seed=seed,
                n_init=4 if warm_start else 8,
                warm_start=warm_start or None,
            )
        elif warm_start:
            tuner.observe_batch(warm_start)
        session = TuningSession(
            tenant=tenant, workload_label=workload_label, workload=workload,
            input_mb=input_mb, cluster=cluster, tuner=tuner,
            objective=objective, store=self.store,
            profiler=self.profiler,
        )
        # The probe is a paid measurement: feed it to the tuner and the
        # campaign history (as it actually launched, post-repair), so the
        # deployed configuration is never worse than the probe.
        projected = Configuration({
            name: probe_as_run[name] for name in self.disc_space.names
        })
        probe_obs = tuner.observe(
            projected, probe_cost,
            succeeded=bool(getattr(probe_result, "success", True)),
        )
        session.result.history.append(probe_obs)

        session.run(
            SessionConfig(budget=budget, min_evaluations=min(10, budget)),
            batch_size=batch_size,
        )
        return session, sources

    # --- the seamless front door ---------------------------------------------
    def submit(self, tenant: str, workload, input_mb: float,
               workload_label: str | None = None,
               slo: TuningSLO | None = None,
               cloud_budget: int = 12, disc_budget: int = 25,
               use_transfer: bool = True,
               cloud_metric: str = "price",
               batch_size: int = 1,
               cluster: Cluster | None = None,
               disc_tuner: Tuner | None = None) -> Deployment:
        """Deploy a workload with everything tuned on the tenant's behalf.

        ``cloud_metric`` expresses the user's trade-off (Section IV.D: "do
        I need the results quickly no matter the cost, or am I willing to
        wait?") — ``"price"`` minimizes dollar cost per run, ``"runtime"``
        minimizes wall-clock.  A caller-supplied ``cluster`` skips the
        cloud stage entirely (the service layer pins recurring tenants to
        their provisioned cluster), and ``disc_tuner`` overrides the DISC
        stage's optimizer.
        """
        label = workload_label or workload.name
        if cluster is not None:
            cloud_evals = 0
        else:
            cluster, cloud_evals = self.tune_cloud(
                workload, input_mb, budget=cloud_budget, metric=cloud_metric,
            )
        session, sources = self.tune_disc(
            tenant, label, workload, input_mb, cluster,
            budget=disc_budget, use_transfer=use_transfer,
            batch_size=batch_size, tuner=disc_tuner,
        )
        best = session.result.best
        # Deploy the configuration as the objective actually launched it
        # (fully resolved against defaults and repaired to fit the cluster).
        _, deployed_config = session.objective.resolve(best.config)
        slo_report = None
        reference_evals = 0
        if slo is not None:
            reference, reference_evals = self._slo_reference(
                slo, tenant, label, session,
            )
            if reference is not None:
                slo_report = evaluate_slo(
                    slo, best.cost, reference,
                    reference_evaluations=reference_evals,
                )
        return Deployment(
            tenant=tenant, workload_label=label, workload=workload,
            input_mb=input_mb, cluster=cluster, config=deployed_config,
            expected_runtime_s=best.cost, slo_report=slo_report,
            # Every paid evaluation counts — including the SLO reference
            # run, which is charged to the ledger like any other.
            tuning_evaluations=(
                cloud_evals + session.result.n_evaluations + reference_evals
            ),
            transferred_from=sources,
        )

    def bulk_evaluate(self, workload, input_mb: float, cluster: Cluster,
                      tuner: Tuner, budget: int,
                      batch_size: int = 16,
                      metric: str = "runtime") -> TuningResult:
        """Screen many candidates through the shared engine, batched.

        The provider-side bulk path ("more than 2000 configurations
        tested"): population tuners propose whole batches, the engine
        memoizes repeats and simulates the misses as one batch, and
        every execution is charged to the provider ledger.
        """
        objective = EngineObjective(
            self.engine, workload, input_mb, cluster=cluster,
            interference=self.interference, ledger=self.ledger,
            metric=metric, seed=self.seed, repair=True,
        )
        return run_tuner_batched(tuner, objective, budget, batch_size=batch_size)

    def _slo_reference(self, slo: TuningSLO, tenant: str, label: str,
                       session: TuningSession) -> tuple[float | None, int]:
        """The SLO's reference runtime plus the paid evaluations it cost.

        ``IMPROVEMENT_OVER_DEFAULT`` measures the default configuration —
        a real, ledger-charged execution that happens *after* the session
        ended, so it must be reported to the caller and counted toward
        the deployment's evaluation total (it used to be silently charged
        and uncounted).  The history-based metrics are free lookups.
        """
        if slo.metric is SLOMetric.IMPROVEMENT_OVER_DEFAULT:
            with self.profiler.phase("evaluate"):
                cost = session.objective(self.disc_space.default_configuration())
            return cost, 1
        if slo.metric is SLOMetric.WITHIN_BEST_SIMILAR:
            # Masked min over the index's per-key best runtimes — this
            # used to scan every successful record per deployment.
            with self.profiler.phase("similarity"):
                return self.store.index().best_runtime_excluding(
                    (tenant, label)
                ), 0
        # WITHIN_OPTIMAL: best the service has ever seen for this workload.
        with self.profiler.phase("similarity"):
            best = self.store.best_for(tenant, label)
        return (best.runtime_s if best else None), 0

    # --- principle 2: production monitoring + auto re-tuning ----------------
    def run_production(self, deployment: Deployment, input_sizes_mb,
                       detector: DriftDetector | None = None,
                       retune_budget: int = 15,
                       max_consecutive_failures: int = 3) -> list[ProductionRun]:
        """Run recurring executions, re-tuning when drift is detected.

        Failure policy: the drift detector sees the *raw runtimes of
        successful runs only*.  Feeding it a crash's penalized
        ``effective_runtime`` (floored at an hour) would poison its
        statistics and fire a false re-tune on the very next sample.
        Crashes are handled explicitly instead: ``max_consecutive_failures``
        failed runs in a row trigger an immediate re-tune (the deployed
        configuration is evidently broken for the current conditions) and
        re-baseline the detector.  Every run's treatment is audited on its
        :class:`ProductionRun`.
        """
        detector = detector or PageHinkleyDetector()
        if max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")
        runs: list[ProductionRun] = []
        input_sizes_mb = list(input_sizes_mb)
        seed = self._next_seed(len(input_sizes_mb))
        consecutive_failures = 0
        for i, input_mb in enumerate(input_sizes_mb):
            env = self.interference.step() if self.interference else QUIET
            result = self.simulator.run(
                deployment.workload, input_mb, deployment.cluster,
                deployment.config, env=env, seed=seed + i,
            )
            self.ledger.charge_production(deployment.cluster, result.runtime_s)
            self.store.record(
                deployment.tenant, deployment.workload_label, input_mb,
                deployment.cluster.describe(), deployment.config, result,
                signature(result),
            )
            retune_reason = None
            detector_fed = False
            if result.success:
                consecutive_failures = 0
                detector_fed = True
                if detector.update(result.runtime_s):
                    retune_reason = "drift"
            else:
                consecutive_failures += 1
                if consecutive_failures >= max_consecutive_failures:
                    retune_reason = "failures"
            if retune_reason is not None:
                session, _ = self.tune_disc(
                    deployment.tenant, deployment.workload_label,
                    deployment.workload, input_mb, deployment.cluster,
                    budget=retune_budget, use_transfer=True,
                )
                _, deployment.config = session.objective.resolve(
                    session.result.best_config
                )
                deployment.expected_runtime_s = session.result.best_cost
                deployment.input_mb = input_mb
                deployment.retuned_count += 1
                if retune_reason == "failures":
                    # The detector re-baselines after any re-tune; a
                    # drift alarm already reset it internally.
                    detector.reset()
            runs.append(ProductionRun(
                index=i, runtime_s=result.runtime_s, success=result.success,
                input_mb=input_mb, retuned=retune_reason is not None,
                detector_fed=detector_fed,
                consecutive_failures=consecutive_failures,
                retune_reason=retune_reason,
            ))
            if retune_reason == "failures":
                consecutive_failures = 0
        return runs
