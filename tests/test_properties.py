"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    BoolParameter,
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
    grant_resources,
    spark_space,
)
from repro.cloud import Cluster, list_instances
from repro.core.retuning import CusumDetector, PageHinkleyDetector
from repro.core.slo import SLOMetric, TuningSLO, evaluate_slo
from repro.sparksim import RDD, compile_job, gc_fraction
from repro.sparksim.scheduler import _list_schedule
from repro.tuning.bo.acquisition import expected_improvement
from repro.tuning.bo.kernels import Matern52, RBF
from tests.oracles import execution_capacity_mb, spill_outcome


# --- configuration space round trips -------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.integers(1, 50), st.integers(51, 10_000), unit)
def test_int_parameter_from_unit_in_bounds(low, high, u):
    p = IntParameter("x", low, high)
    assert low <= p.from_unit(u) <= high


@given(st.integers(1, 50), st.integers(51, 10_000), unit)
def test_int_parameter_roundtrip(low, high, u):
    p = IntParameter("x", low, high)
    v = p.from_unit(u)
    assert p.from_unit(p.to_unit(v)) == v


@given(unit)
def test_log_parameter_roundtrip(u):
    p = IntParameter("x", 8, 2000, log=True)
    v = p.from_unit(u)
    assert p.from_unit(p.to_unit(v)) == v


@settings(max_examples=50)
@given(st.lists(unit, min_size=32, max_size=32))
def test_spark_space_decode_always_valid(units):
    space = spark_space()
    config = space.decode(np.array(units))
    space.validate(config)  # never raises
    # encode-decode is a projection: decoding its own encoding is stable
    again = space.decode(space.encode(config))
    assert again == config


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(1, 64))
def test_latin_hypercube_covers_every_axis_stratum(seed, n):
    space = ConfigurationSpace([
        FloatParameter("a", 0.0, 1.0),
        FloatParameter("b", 0.0, 1.0),
    ])
    configs = space.latin_hypercube(n, np.random.default_rng(seed))
    assert len(configs) == n
    for name in ("a", "b"):
        strata = sorted(min(n - 1, int(c[name] * n)) for c in configs)
        assert strata == list(range(n))


# --- resource grants ----------------------------------------------------------

_instances = st.sampled_from([t.name for t in list_instances()])


@settings(max_examples=60)
@given(_instances, st.integers(1, 16), st.integers(1, 48), st.integers(1, 16),
       st.integers(512, 65536))
def test_grant_never_exceeds_cluster(instance, nodes, execs, cores, memory):
    cluster = Cluster.of(instance, nodes)
    config = spark_space().default_configuration().replace(**{
        "spark.executor.instances": execs,
        "spark.executor.cores": cores,
        "spark.executor.memory": memory,
    })
    grant = grant_resources(config, cluster)
    assert 0 <= grant.executors <= execs
    assert grant.total_slots <= cluster.total_vcpus
    total_container = grant.executors * memory * 1.1
    assert total_container <= cluster.total_memory_mb * 1.2  # overhead slack


# --- memory model invariants ----------------------------------------------------

positive = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(positive, positive, st.floats(0.0, 0.5))
def test_spill_conservation(ws, avail, unspillable):
    out = spill_outcome(ws, avail, unspillable)
    if not out.oom:
        assert 0 <= out.spilled_mb <= ws
        # Whatever did not spill fits in available memory.
        assert ws - out.spilled_mb <= avail + 1e-9


@given(st.floats(0.0, 1.2), st.floats(0.0, 1.2))
def test_gc_fraction_monotone_and_bounded(a, b):
    lo, hi = sorted([a, b])
    assert 0 <= gc_fraction(lo) <= gc_fraction(hi) <= 0.45


# --- scheduler invariants -----------------------------------------------------------

@settings(max_examples=50)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=300),
       st.integers(1, 64))
def test_makespan_bounds(durations, slots):
    d = np.array(durations)
    m = _list_schedule(d, slots)
    assert m >= d.max() - 1e-9                  # longest task is a lower bound
    assert m >= d.sum() / slots - 1e-9          # perfect packing is a lower bound
    assert m <= d.sum() / slots + d.max() + 1e-9  # greedy guarantee


# --- DAG compilation invariants ---------------------------------------------------------

@settings(max_examples=40)
@given(st.floats(10.0, 100_000.0), st.floats(0.01, 1.0), st.floats(0.1, 1.5))
def test_compile_conserves_shuffle_bytes(size, keep, shuffle_ratio):
    job = (RDD.source("d", size).filter(keep=keep)
           .reduce_by_key(size_ratio=shuffle_ratio).count())
    plan = compile_job(job)
    written = sum(s.shuffle_write_mb for s in plan.stages)
    read = sum(s.shuffle_read_mb for s in plan.stages)
    assert abs(written - read) < 1e-6
    assert abs(written - size * keep * shuffle_ratio) < 1e-6


@settings(max_examples=40)
@given(st.integers(1, 6))
def test_pagerank_plan_acyclic_any_iterations(iterations):
    import networkx as nx

    from repro.workloads import PageRank

    jobs = PageRank(iterations=iterations).jobs(1000)
    next_id = 0
    from repro.sparksim import CacheRegistry

    registry = CacheRegistry()
    for job in jobs:
        plan = compile_job(job, registry, first_stage_id=next_id)
        next_id += plan.num_stages
        graph = nx.DiGraph()
        graph.add_nodes_from(s.stage_id for s in plan.stages)
        graph.add_edges_from((dep, s.stage_id) for s in plan.stages
                             for dep in s.depends_on)
        assert nx.is_directed_acyclic_graph(graph)
        for stage in plan.stages:
            for rdd_id, mb, rb in stage.materializes:
                registry.materialize(rdd_id, mb, rb)
        for rdd in job.unpersist_after:
            registry.evict(rdd.id)


# --- kernels and acquisitions --------------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(2, 20), st.integers(1, 5))
def test_kernel_matrices_psd(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    for kernel in (RBF(), Matern52()):
        K = kernel(X, X, kernel.default_theta())
        eig = np.linalg.eigvalsh(K + 1e-10 * np.eye(n))
        assert eig.min() > -1e-7


@given(st.floats(-100, 100), st.floats(1e-6, 100), st.floats(-100, 100))
def test_expected_improvement_nonnegative(mean, std, best):
    ei = expected_improvement(np.array([mean]), np.array([std]), best)
    assert ei[0] >= -1e-12


# --- drift detectors ----------------------------------------------------------------------

@settings(max_examples=30)
@given(st.floats(1.0, 1e6), st.integers(1, 60))
def test_constant_stream_never_alarms(level, n):
    ph = PageHinkleyDetector()
    cusum = CusumDetector()
    for _ in range(n):
        assert not ph.update(level)
        assert not cusum.update(level)


# --- SLO algebra ------------------------------------------------------------------------------

@given(st.floats(1.0, 1e5), st.floats(1.0, 1e5), st.floats(0.0, 2.0))
def test_slo_within_optimal_consistency(achieved, reference, target):
    slo = TuningSLO(SLOMetric.WITHIN_OPTIMAL, target)
    report = evaluate_slo(slo, achieved, reference)
    assert report.attained == (achieved <= reference * (1 + target) + 1e-9 * reference)


# --- Ernest model ----------------------------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(3, 30))
def test_ernest_coefficients_nonnegative(seed, n):
    from repro.tuning import ErnestModel

    rng = np.random.default_rng(seed)
    machines = rng.integers(1, 32, n).astype(float)
    data = rng.uniform(100, 10_000, n)
    runtimes = rng.uniform(1, 1000, n)
    model = ErnestModel().fit(machines, data, runtimes)
    assert (model.coefficients >= 0).all()
    # Non-negative coefficients imply non-negative predictions.
    assert (model.predict(machines, data) >= 0).all()


# --- spill/grant interplay -------------------------------------------------------------------

@settings(max_examples=40)
@given(st.floats(512, 65536), st.floats(0.3, 0.9), st.floats(0.1, 0.9))
def test_executor_memory_regions_partition_heap(heap, fraction, storage_fraction):
    from repro.config import Configuration, SPARK_DEFAULTS
    from repro.sparksim import ExecutorModel

    config = Configuration({**SPARK_DEFAULTS, **{
        "spark.executor.memory": int(heap),
        "spark.memory.fraction": fraction,
        "spark.memory.storageFraction": storage_fraction,
    }})
    ex = ExecutorModel.from_config(config)
    assert 0 <= ex.storage_immune_mb <= ex.unified_mb <= max(0.0, heap - 300) + 1e-9
    # Execution capacity is monotone non-increasing in cached footprint.
    caps = [execution_capacity_mb(ex, s)
            for s in (0.0, ex.unified_mb / 2, ex.unified_mb)]
    assert caps[0] >= caps[1] >= caps[2] >= 0


# --- successive halving ----------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(4, 20))
def test_successive_halving_monotone_rungs(seed, n_configs):
    from repro.config import ConfigurationSpace, FloatParameter
    from repro.tuning import successive_halving

    space = ConfigurationSpace([FloatParameter("x", 0.0, 1.0)])

    def objective_at(config, fidelity):
        return 1.0 + (config["x"] - 0.3) ** 2 / fidelity

    result = successive_halving(objective_at, space, n_configs=n_configs,
                                eta=2, seed=seed)
    survivors = [n for _, n in result.rung_trace]
    assert survivors == sorted(survivors, reverse=True)
    fidelities = [f for f, _ in result.rung_trace]
    assert fidelities == sorted(fidelities)
    assert abs(result.best_config["x"] - 0.3) < 0.35


# --- event log round trip ---------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_eventlog_roundtrip_signature_invariant(seed):
    import tempfile
    from pathlib import Path

    from repro.cloud import Cluster
    from repro.core import probe_configuration, signature
    from repro.sparksim import SparkSimulator, read_event_log, write_event_log
    from repro.workloads import Sort

    simulator = SparkSimulator()
    cluster = Cluster.of("h1.4xlarge", 4)
    result = simulator.run(Sort(), 3_000, cluster, probe_configuration(), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        write_event_log(result, path)
        loaded = read_event_log(path)
    assert np.allclose(signature(loaded), signature(result))
