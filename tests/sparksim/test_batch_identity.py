"""Property tests: ``run_batch`` is bit-identical to the scalar reference.

The simulator's one path (plan cache + struct-of-arrays stage costing +
stage-major matrix scheduling; ``run()`` is a batch of one) is an
optimisation, not an approximation: every :class:`ExecutionResult` it
produces must equal, field for field, what the scalar reference
(:class:`~tests.oracles.ScalarSimulator`, one execution at a time)
returns for the same (config, env, seed).  These tests drive the
contract across workloads, seeds, environments, batch sizes, fault
plans, and candidate mixes that include cluster-manager rejections and
OOM-failing configurations — both with a distinct configuration per
candidate (a tuning batch) and with one configuration for every run (an
ingest batch, which is what the matrix path schedules).  The batch path
is the only place fault arithmetic lives, so deterministic cases for
the fault combinations the plans rarely draw check it against the
reference too.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sparksim.costmodel as costmodel
import repro.sparksim.simulator as simulator_module
import tests.oracles as oracles
from repro.cloud import Cluster
from repro.cloud.interference import NOISY, QUIET, TYPICAL, InterferenceModel
from repro.config.spark_params import spark_space
from repro.sparksim import SparkSimulator
from repro.sparksim.faults import (
    FaultDraw,
    FaultPlan,
    env_spike,
    executor_loss,
    oom_kill,
    straggler,
)
from repro.workloads import KMeans, Sort, Wordcount
from tests.oracles import ScalarSimulator, UngroupedExecutor, _apply_speculation

CLUSTER = Cluster.of("m5.2xlarge", 4)
SPACE = spark_space()
ENVS = (QUIET, TYPICAL, NOISY)
WORKLOADS = (
    (Sort(), 1024.0),
    (Wordcount(), 768.0),
    (KMeans(), 512.0),
)
PLANS = (
    None,
    FaultPlan(),                      # a plan with no specs never fires
    FaultPlan((executor_loss(0.5, fraction=0.4, span=2),
               straggler(0.4, slowdown=4.0, span=2))),
    FaultPlan((oom_kill(0.5, span=2), env_spike(0.4, multiplier=2.0))),
)

#: forces the cluster-manager rejection path: no node fits the container
REJECT = {"spark.executor.memory": 262144}
#: forces the OOM path: minimal per-task execution memory (512 MiB heap
#: split across 8 concurrent tasks leaves less than the 32 MiB floor),
#: so a task's working set cannot even spill
OOM = {
    "spark.executor.memory": 512,
    "spark.executor.cores": 8,
    "spark.task.cpus": 1,
    "spark.executor.instances": 4,
    "spark.memory.fraction": 0.3,
    "spark.memory.storageFraction": 0.9,
    "spark.memory.offHeap.enabled": False,
    "spark.memory.offHeap.size": 0,
    "spark.default.parallelism": 8,
}


def _candidates(rng, n, include_failures):
    configs = [SPACE.sample_configuration(rng) for _ in range(n)]
    if include_failures and n >= 2:
        configs[-1] = configs[-1].replace(**REJECT)
        configs[-2] = configs[-2].replace(**OOM)
    return configs


def _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds):
    """``sim.run_batch`` and each ``sim.run`` (a batch of one) equal the
    scalar reference with ``sim``'s calibration, noise and fault plan."""
    batch = sim.run_batch(workload, input_mb, CLUSTER, configs,
                          envs=envs, seeds=seeds)
    reference = ScalarSimulator.matching(sim)
    scalar = [
        reference.run(workload, input_mb, CLUSTER, c, env=e, seed=s)
        for c, e, s in zip(configs, envs, seeds)
    ]
    assert batch == scalar
    assert [sim.run(workload, input_mb, CLUSTER, c, env=e, seed=s)
            for c, e, s in zip(configs, envs, seeds)] == scalar
    return batch


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    st.integers(min_value=0, max_value=len(PLANS) - 1),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
def test_run_batch_matches_scalar_loop(w_idx, plan_idx, batch_size, seed,
                                       include_failures):
    workload, input_mb = WORKLOADS[w_idx]
    rng = np.random.default_rng(seed)
    configs = _candidates(rng, batch_size, include_failures)
    envs = [ENVS[i % len(ENVS)] for i in range(batch_size)]
    seeds = [seed + 17 * i for i in range(batch_size)]
    sim = SparkSimulator(fault_plan=PLANS[plan_idx])
    _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds)


#: ingest-shaped batches: one configuration (these overrides on the space
#: defaults) for every run
INGEST_SHAPES = {
    "defaults": {},
    "speculation": {"spark.speculation": True,
                    "spark.speculation.quantile": 0.5},
    "oom": OOM,
}


def _ingest_batch(shape, n, seed, interference):
    config = SPACE.default_configuration().replace(**INGEST_SHAPES[shape])
    if interference:
        model = InterferenceModel(level=1.0, seed=seed)
        envs = [model.step() for _ in range(n)]
    else:
        envs = [QUIET] * n
    return [config] * n, envs, [seed + i for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    st.sampled_from(sorted(INGEST_SHAPES)),
    st.integers(min_value=1, max_value=128),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.sampled_from((None, 2, 3)),
    st.booleans(),
)
def test_one_config_many_seeds_matches_scalar_loop(w_idx, shape, n, seed,
                                                   noise, plan_idx,
                                                   interference):
    """What ingest sends: ``run_batch([c] * n, ...)`` with seeds
    ``seed + i``, optionally per-run interference and a fault plan
    whose strikes give some runs a cost column of their own."""
    workload, input_mb = WORKLOADS[w_idx]
    configs, envs, seeds = _ingest_batch(shape, n, seed, interference)
    sim = SparkSimulator(
        noise=noise,
        fault_plan=PLANS[plan_idx] if plan_idx is not None else None,
    )
    batch = _assert_batch_identity(sim, workload, input_mb, configs, envs,
                                   seeds)
    assert batch.runtimes == [r.runtime_s for r in batch]
    assert batch.successes == [r.success for r in batch]
    # a recurring batch of one deployment reuses its one-column cost
    # program, kept once its key recurred (the run() loop above), and
    # replays the same results; a struck run's own column makes the
    # batch a multi-column one, whose program is never kept
    hits = sim.cost_cache_hits
    assert sim.run_batch(workload, input_mb, CLUSTER, configs, envs=envs,
                         seeds=seeds) == batch
    if len(batch.cost_columns()) == 1 and not interference:
        assert sim.cost_cache_hits == hits + 1


def _spy(monkeypatch, name):
    """Record the positional arguments of every call the simulator makes
    to the scheduler kernel ``name``."""
    calls = []
    kernel = getattr(simulator_module, name)

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(simulator_module, name, spy)
    return calls


def _speculation(config):
    return (float(config["spark.speculation.multiplier"]),
            float(config["spark.speculation.quantile"]))


def test_ingest_batches_take_the_matrix_path(monkeypatch):
    """The cases above really exercise the matrix scheduler: a
    same-config batch makes one ``_schedule_rows`` call per stage shape
    (task count, slots, speculation), holding the rows of every stage
    with that shape, speculating deployments' batches included."""
    calls = _spy(monkeypatch, "_schedule_rows")
    n = 64
    sim = SparkSimulator()
    for shape, speculating in (("defaults", False), ("speculation", True)):
        calls.clear()
        configs, envs, seeds = _ingest_batch(shape, n, 11, True)
        batch = _assert_batch_identity(sim, KMeans(), 512.0, configs, envs,
                                       seeds)
        run = batch[0]
        spec = _speculation(configs[0]) if speculating else None
        stages_of = Counter(
            (stage.num_tasks, run.total_slots,
             spec if stage.num_tasks >= 4 else None)
            for stage in run.stages)
        rows_of = {(durations.shape[1], slots, speculation): len(durations)
                   for durations, slots, speculation in calls}
        assert len(rows_of) == len(calls) < run.num_stages
        assert rows_of == {key: n * k for key, k in stages_of.items()}
    oom_configs, _, _ = _ingest_batch("oom", n, 11, False)
    failed = sim.run_batch(Sort(), 1024.0, CLUSTER, oom_configs, seeds=seeds)
    assert not any(failed.successes)
    reference = ScalarSimulator()
    assert failed == [reference.run(Sort(), 1024.0, CLUSTER, c, seed=s)
                      for c, s in zip(oom_configs, seeds)]


#: KMeans at 512 MB runs 13 stages; its iterations' 4-task stages share
#: one shape on the default configuration's 2 slots.  This configuration
#: has the same slots and first stage, then OOMs in the second.
OOM_SECOND_STAGE = {"spark.executor.memory": 512,
                    "spark.memory.fraction": 0.3}


def test_same_shape_stages_merge_across_an_oom_column(monkeypatch):
    """A column that dies of OOM between two stages of one shape: its
    first stage shares the shape's matrix with the other column's later
    stages, and its runtime stops at its waste."""
    calls = _spy(monkeypatch, "_schedule_rows")
    default = SPACE.default_configuration()
    configs = [default] * 6 + [default.replace(**OOM_SECOND_STAGE)] * 3
    model = InterferenceModel(level=1.0, seed=4)
    envs = [model.step() for _ in configs]
    batch = _assert_batch_identity(SparkSimulator(), KMeans(), 512.0, configs,
                                   envs, list(range(40, 49)))
    ok, dead = batch[0], batch[6]
    assert ok.success and not dead.success
    assert [s.failed for s in dead.stages] == [False, True]
    four_task_stages = sum(s.num_tasks == 4 for s in ok.stages)
    assert sorted(len(durations) for durations, _, _ in calls) == [
        6 * (ok.num_stages - four_task_stages),
        6 * four_task_stages + 3,
    ]


def test_speculating_stages_with_different_copy_counts_merge(monkeypatch):
    """Merged speculating stages whose rows launch different numbers of
    copies: each stage's rows are padded to the merged matrix's widest
    row, not to their own stage's."""
    calls = _spy(monkeypatch, "_schedule_rows")
    n = 8
    config = SPACE.default_configuration().replace(**{
        "spark.speculation": True, "spark.speculation.multiplier": 1.1,
        "spark.speculation.quantile": 0.5})
    model = InterferenceModel(level=1.0, seed=9)
    envs = [model.step() for _ in range(n)]
    batch = _assert_batch_identity(SparkSimulator(), KMeans(), 512.0,
                                   [config] * n, envs, list(range(n)))
    sixteen = [d for d, _, _ in calls if d.shape[1] == 16]
    assert len(sixteen) == 1 and batch[0].success
    # the scalar clamp's copy count of every row, one block per stage
    copies = np.array([_apply_speculation(row.copy(), config)[1]
                       for row in sixteen[0]]).reshape(-1, n)
    assert len(copies) == sum(s.num_tasks == 16 for s in batch[0].stages)
    assert len(set(copies.max(axis=1).tolist())) > 1


def test_one_stage_holds_a_matrix_group_and_singles(monkeypatch):
    """At every stage one column's rows form a matrix and two smaller
    columns, on other slot counts, are scheduled row by row; so is each
    of the identity check's ``run()`` calls, a batch of one row."""
    matrix = _spy(monkeypatch, "_schedule_rows")
    singles = _spy(monkeypatch, "_schedule_1d")
    default = SPACE.default_configuration()
    configs = ([default] * 5
               + [default.replace(**{"spark.executor.instances": 3})] * 2
               + [default.replace(**{"spark.executor.cores": 2})])
    batch = _assert_batch_identity(SparkSimulator(), KMeans(), 512.0, configs,
                                   [QUIET] * 8, list(range(70, 78)))
    assert {r.total_slots for r in batch} == {2, 3, 4}
    assert sum(len(durations) for durations, _, _ in matrix) == \
        5 * batch[0].num_stages
    assert len(singles) == (3 + len(configs)) * batch[0].num_stages


def test_run_batch_is_a_read_only_sequence():
    rng = np.random.default_rng(5)
    configs = _candidates(rng, 6, include_failures=True)
    sim = SparkSimulator(fault_plan=FaultPlan((straggler(0.5, span=2),)))
    batch = sim.run_batch(Sort(), 1024.0, CLUSTER, configs,
                          seeds=list(range(6)))
    reference = ScalarSimulator.matching(sim)
    scalar = [reference.run(Sort(), 1024.0, CLUSTER, c, seed=i)
              for i, c in enumerate(configs)]
    assert len(batch) == 6 and list(batch) == scalar
    assert batch[-1] == scalar[-1] and batch[1:4] == scalar[1:4]
    with pytest.raises(IndexError):
        batch[6]
    assert batch != scalar[:5] and batch != "not a sequence"
    # columnar rows are built on access: a fresh, equal object each time
    row = int(batch.cost_columns()[0].members[0])
    first = batch[row]
    first.runtime_s = -1.0
    assert batch[row] == scalar[row] and batch[row] is not batch[row]
    # each cost column's stage totals are its members' stages minus the
    # noise-drawn duration and task statistics
    members = []
    for column in batch.cost_columns():
        for i in column.members.tolist():
            stages = scalar[i].stages
            assert [t._asdict() for t in column.stages] == [
                {k: v for k, v in vars(m).items()
                 if k not in ("duration_s", "task_metrics")}
                for m in stages]
            assert column.task_p50_s.shape[1] == sum(
                not m.failed for m in stages)
        members.extend(column.members.tolist())
    # the rest, the rejected grants (here at least the last candidate),
    # are stored results
    stored = [i for i in range(6) if i not in members]
    assert members and 5 in stored
    assert all(batch[i] is batch[i] and scalar[i].executors_granted == 0
               for i in stored)


def test_failure_paths_are_exercised_and_identical():
    """The deterministic mix really hits reject, OOM, and fault aborts."""
    rng = np.random.default_rng(7)
    configs = _candidates(rng, 6, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(6)]
    seeds = list(range(6))
    sim = SparkSimulator(fault_plan=FaultPlan((straggler(1.0, slowdown=3.0),)))
    batch = _assert_batch_identity(sim, Sort(), 1024.0, configs, envs, seeds)

    reasons = [r.failure_reason for r in batch if not r.success]
    assert any("does not fit" in (m or "") for m in reasons), reasons
    assert any("OOM in stage" in (m or "") for m in reasons), reasons
    assert any(r.faults_injected for r in batch)


#: fault combinations the hypothesis plans rarely draw, each spec firing
#: with probability 1: (specs, configuration overrides, workload, input
#: MB, the draw's pinned fields, what the result must show)
FAULT_CASES = {
    "straggler_and_loss_on_one_stage": (
        (straggler(1.0, slowdown=3.0), executor_loss(1.0, fraction=0.5)),
        {}, Sort(), 1024.0, {},
        {"success": True, "total_slots": 1,
         "faults_injected": ("straggler:stage0:x3", "executor_loss:stage0:1")},
    ),
    "loss_on_a_one_executor_grant": (
        (executor_loss(1.0, fraction=0.5),),
        {"spark.executor.instances": 1}, Sort(), 1024.0, {},
        {"success": True, "total_slots": 1, "executors_granted": 1,
         "faults_injected": ("executor_loss:stage0:0",)},
    ),
    "kill_on_the_genuine_oom_stage": (
        (oom_kill(1.0),), OOM, Sort(), 1024.0, {},
        {"success": False, "faults_injected": ("oom_kill:stage0",),
         "failure_reason": "fault-injected OOM kill in stage 1 (parse)"},
    ),
    "kill_at_stage_1_after_a_loss_at_stage_0": (
        (executor_loss(1.0, fraction=0.5), oom_kill(1.0, span=2)),
        {}, Sort(), 1024.0, {"oom_stage": 1},
        {"success": False, "total_slots": 1,
         "faults_injected": ("executor_loss:stage0:1", "oom_kill:stage1"),
         "failure_reason": "fault-injected OOM kill in stage 0 (sort)"},
    ),
    "spike_on_a_rejected_grant": (
        (env_spike(1.0, multiplier=2.0),), REJECT, Sort(), 1024.0, {},
        {"success": False, "runtime_s": 25.0, "total_slots": 0,
         "faults_injected": ("env_spike:x2",),
         "environment_factor":
             FaultDraw(env_multiplier=2.0).spike_env(TYPICAL).combined()},
    ),
    "kill_drawn_past_the_last_stage": (
        (oom_kill(1.0, span=8),), {}, Sort(), 1024.0, {"oom_stage": 5},
        {"success": True, "faults_injected": ()},
    ),
    "kill_drawn_after_the_genuine_oom_stage": (
        (oom_kill(1.0, span=4),), OOM_SECOND_STAGE, KMeans(), 512.0,
        {"oom_stage": 3},
        {"success": False, "faults_injected": ()},
    ),
}


def _seeds_drawing(plan, n, **fields):
    """The first ``n`` seeds whose fault draw has ``fields``."""
    seeds = (s for s in range(10_000)
             if all(getattr(plan.draw(s), k) == v for k, v in fields.items()))
    return [next(seeds) for _ in range(n)]


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_rare_fault_combinations_match_the_reference(case):
    """Each combination, as three struck rows of one batch and as single
    runs, equals the reference field for field: runtime, audit trail,
    failure reason and slots included."""
    specs, overrides, workload, input_mb, draw, want = FAULT_CASES[case]
    sim = SparkSimulator(fault_plan=FaultPlan(specs))
    config = SPACE.default_configuration().replace(**overrides)
    seeds = _seeds_drawing(sim.fault_plan, 3, **draw)
    batch = _assert_batch_identity(sim, workload, input_mb, [config] * 3,
                                   [TYPICAL] * 3, seeds)
    for result in batch:
        assert {k: getattr(result, k) for k in want} == want


def test_noise_off_batch_identity():
    rng = np.random.default_rng(3)
    configs = _candidates(rng, 5, include_failures=True)
    sim = SparkSimulator(noise=False)
    _assert_batch_identity(sim, Sort(), 1024.0, configs,
                           [QUIET] * 5, [0] * 5)


def test_both_paths_read_the_one_gc_leaf(monkeypatch):
    """GC overhead is ``costmodel.gc_fraction``, which the batch cost
    program calls; the cost-model ablation bench flattens GC by patching
    that one name.  A path that inlines the curve keeps identity on
    unpatched runs, so patch it (and the reference's own binding):
    ``run()`` and ``run_batch()`` must move, and stay identical to the
    patched reference."""
    rng = np.random.default_rng(8)
    configs = _candidates(rng, 6, include_failures=False)
    envs, seeds = [QUIET] * 6, list(range(6))
    before = _assert_batch_identity(SparkSimulator(noise=False), Sort(),
                                    1024.0, configs, envs, seeds)
    def flat(occupancy):
        return 0.3

    monkeypatch.setattr(costmodel, "gc_fraction", flat)
    monkeypatch.setattr(oracles, "gc_fraction", flat)
    after = _assert_batch_identity(SparkSimulator(noise=False), Sort(),
                                   1024.0, configs, envs, seeds)
    assert [r.runtime_s for r in after] != [r.runtime_s for r in before]


def test_large_batch_identity():
    """The joint (stages x candidates) program holds at production widths.

    512 candidates is past every chunking/vectorization threshold in the
    batch path (plan arrays, pooled seeding, fused cost sweep), so this
    is the regime where a broadcasting or accumulation-order bug would
    surface; includes reject/OOM rows and repeated seeds.
    """
    n = 512
    rng = np.random.default_rng(21)
    configs = _candidates(rng, n, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(n)]
    seeds = [(31 * i) % 97 for i in range(n)]       # many duplicate streams
    sim = SparkSimulator()
    _assert_batch_identity(sim, Sort(), 1024.0, configs, envs, seeds)


def test_mixed_envs_and_duplicate_seeds():
    """Candidates sharing a seed under different envs stay independent."""
    rng = np.random.default_rng(13)
    configs = _candidates(rng, 9, include_failures=True)
    envs = [ENVS[i % len(ENVS)] for i in range(9)]
    seeds = [5, 5, 5, 2**63 - 1, 0, 0, 7, 5, 2**63 - 1]
    for workload, input_mb in WORKLOADS:
        sim = SparkSimulator()
        _assert_batch_identity(sim, workload, input_mb, configs, envs, seeds)


def test_batch_of_one_and_empty():
    """A batch of one is screened like any other size: a plain run and a
    fault-struck run are simulated stage-major, while a rejected grant is
    answered at screening, each equal to the reference."""
    rng = np.random.default_rng(4)
    (config,) = _candidates(rng, 1, include_failures=False)
    sim = SparkSimulator()
    assert sim.run_batch(Sort(), 512.0, CLUSTER, []) == []
    _assert_batch_identity(sim, Sort(), 512.0, [config], [TYPICAL], [9])
    default = SPACE.default_configuration()
    for workload, input_mb in WORKLOADS:
        for env in ENVS:
            batch = _assert_batch_identity(sim, workload, input_mb,
                                           [default], [env], [9])
            assert [c.members.tolist() for c in batch.cost_columns()] == [[0]]
    struck = SparkSimulator(
        fault_plan=FaultPlan((straggler(1.0, slowdown=3.0),)))
    batch = _assert_batch_identity(struck, Sort(), 1024.0, [default],
                                   [QUIET], [3])
    assert batch[0].faults_injected
    assert [c.members.tolist() for c in batch.cost_columns()] == [[0]]
    rejected = _assert_batch_identity(sim, Sort(), 1024.0,
                                      [default.replace(**REJECT)], [QUIET],
                                      [3])
    assert "does not fit" in rejected[0].failure_reason
    assert rejected.cost_columns() == []


def test_batch_arrays_keep_stable_dtypes(monkeypatch):
    """The batch path's arrays stay float64/int64/bool end to end, from
    the cost program's inputs to the stage-major ``BatchColumns`` it
    returns: bit-identity with the scalar model must not rest on
    accidental promotion, so a column quietly landing in float32 or a
    platform-dependent int is a bug even while the identity tests above
    still pass on this machine.  This runtime check is the repo's only
    dtype guard.
    """
    from repro.config.constraints import grant_resources
    from repro.sparksim.costmodel import (
        build_batch_inputs,
        build_plan_arrays,
        compute_plan_cost_batch,
    )
    from repro.sparksim.executor import ExecutorModel

    rng = np.random.default_rng(11)
    configs, grants = [], []
    while len(configs) < 4:      # granted candidates only, like run_batch
        config = SPACE.sample_configuration(rng)
        grant = grant_resources(config, CLUSTER)
        if grant.executors >= 1:
            configs.append(config)
            grants.append(grant)
    executors = [ExecutorModel.from_config(c) for c in configs]
    envs = [ENVS[i % len(ENVS)] for i in range(4)]

    sim = SparkSimulator()
    compiled = sim.compile_workload(Sort(), 1024.0)
    b = build_batch_inputs(configs, CLUSTER, grants, executors, envs)
    plan = build_plan_arrays(compiled)
    cost = compute_plan_cost_batch(plan, b, sim.calibration)

    for name in ("locality_wait", "remote_frac", "flush_base",
                 "fetch_efficiency", "per_block_s", "heap_mb",
                 "unified_mb", "immune_mb", "offheap_mb", "disk_share",
                 "net_share", "env_cpu", "cache_footprint",
                 "cache_read_cpu", "cache_capacity"):
        assert getattr(b, name).dtype == np.float64, name
    for name in ("parallelism", "executors", "requested", "concurrent",
                 "bypass_threshold"):
        assert getattr(b, name).dtype == np.int64, name
    for name in ("shuffle_compress", "spill_compress", "speculation",
                 "cache_miss_to_disk"):
        assert getattr(b, name).dtype == np.bool_, name

    assert plan.hint.dtype == np.int64
    for name in ("input_mb", "cached_read_mb", "shuffle_read_mb",
                 "shuffle_write_mb", "output_mb_eff", "cpu_s",
                 "unspillable", "collect_mb", "cached_mb",
                 "recompute_cpu", "recompute_io"):
        assert getattr(plan, name).dtype == np.float64, name
    for name in ("has_input", "has_cached", "has_shuffle_read",
                 "has_shuffle_write", "has_output"):
        assert getattr(plan, name).dtype == np.bool_, name

    assert cost.num_tasks.dtype == np.int64
    assert cost.oom.dtype == np.bool_
    for name in ("cpu_s", "disk_s", "net_s", "gc_s", "idle_s", "total_s",
                 "driver_s", "spilled_mb", "spill_mb_total"):
        assert getattr(cost, name).dtype == np.float64, name

    # The stage-major output, written by all three of its paths: a
    # same-config group large enough for the matrix scheduler, one
    # speculating config (per-row scheduler) and one OOM config (the
    # fail-stage arithmetic).
    called = set()

    def recorded(fn):
        def wrapper(*args, **kwargs):
            called.add(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_schedule_rows", "_schedule_1d"):
        monkeypatch.setattr(simulator_module, name,
                            recorded(getattr(simulator_module, name)))
    default = SPACE.default_configuration()
    configs = ([default] * simulator_module._MIN_MATRIX_ROWS
               + [default.replace(**INGEST_SHAPES["speculation"]),
                  default.replace(**OOM)])
    batch = sim.run_batch(Sort(), 1024.0, CLUSTER, configs,
                          seeds=list(range(len(configs))))
    columns = batch.columns
    assert columns is not None and len(batch.cost_columns()) == 3
    assert called == {"_schedule_rows", "_schedule_1d"}
    assert (columns.fail_stage < columns.plan.n_stages).any()

    for name in ("runtime_s", "duration_s", "task_mean_s", "task_p50_s",
                 "task_p95_s", "task_max_s", "spill_mb", "cpu_time_s",
                 "gc_time_s", "io_time_s", "net_time_s", "spilled_mb"):
        assert getattr(columns, name).dtype == np.float64, name
    assert columns.col.dtype == np.intp      # a row -> column index array
    for name in ("fail_stage", "executors", "requested", "slots",
                 "num_tasks"):
        assert getattr(columns, name).dtype == np.int64, name


def test_histories_identical_under_engine_batching():
    """End to end: identical observation histories through the engine."""
    from repro.engine import EngineObjective, EvaluationEngine
    from repro.engine.executors import SerialExecutor
    from repro.tuning import RandomSearchTuner, run_tuner

    def campaign(simulator, executor):
        eng = EvaluationEngine(simulator=simulator, executor=executor)
        objective = EngineObjective(eng, Sort(), 1024.0, cluster=CLUSTER,
                                    repair=True, seed=5)
        return run_tuner(
            RandomSearchTuner(spark_space(), seed=11), objective,
            budget=24, batch_size=8,
        )

    sim_a = SparkSimulator()
    batched = campaign(sim_a, SerialExecutor(sim_a))
    sim_b = ScalarSimulator()
    scalar = campaign(sim_b, UngroupedExecutor(sim_b))
    assert [o.cost for o in batched.history] == \
           [o.cost for o in scalar.history]
    assert [o.config for o in batched.history] == \
           [o.config for o in scalar.history]
