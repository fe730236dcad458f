"""Tests for the RDD lineage API and the DAG compiler."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparksim import CacheRegistry, RDD, compile_job
from repro.sparksim.dag import JobPlan, StageProfile, compile_workload
from repro.workloads import SUITE


def _stage_digraph(plan):
    """The stage graph in networkx: nodes in plan order, one edge per
    dependency, in the order the stages list them."""
    graph = nx.DiGraph()
    graph.add_nodes_from(s.stage_id for s in plan.stages)
    graph.add_edges_from((dep, s.stage_id) for s in plan.stages
                         for dep in s.depends_on)
    return graph


class TestRDDLineage:
    def test_source_default_partitioning(self):
        src = RDD.source("data", 1280)
        assert src.partitions == 10  # 128 MB splits

    def test_source_rejects_empty(self):
        with pytest.raises(ValueError):
            RDD.source("data", 0)

    def test_narrow_preserves_partitions(self):
        src = RDD.source("data", 1280, partitions=7)
        assert src.map().partitions == 7
        assert src.filter(keep=0.5).partitions == 7

    def test_size_flows_through_ratios(self):
        src = RDD.source("data", 1000)
        out = src.flat_map(size_ratio=1.5).filter(keep=0.5)
        assert out.size_mb == pytest.approx(750)

    def test_filter_validates_keep(self):
        with pytest.raises(ValueError):
            RDD.source("d", 100).filter(keep=0.0)

    def test_wide_ops_take_explicit_or_default_partitions(self):
        src = RDD.source("data", 1000)
        assert src.reduce_by_key(partitions=33).partitions == 33
        assert src.reduce_by_key().partitions is None  # spark.default.parallelism

    def test_group_by_key_shuffles_everything(self):
        src = RDD.source("data", 1000)
        grouped = src.group_by_key()
        assert grouped.input_mb == pytest.approx(1000)
        assert grouped.op.size_ratio == 1.0
        assert grouped.unspillable_fraction > src.unspillable_fraction

    def test_join_merges_parents(self):
        a = RDD.source("a", 600)
        b = RDD.source("b", 400)
        j = a.join(b)
        assert j.input_mb == pytest.approx(1000)
        assert len(j.parents) == 2

    def test_lineage_topological_and_deduped(self):
        a = RDD.source("a", 100)
        b = a.map()
        c = b.join(b.filter())
        lineage = c.lineage()
        ids = [r.id for r in lineage]
        assert len(ids) == len(set(ids))
        assert ids.index(a.id) < ids.index(b.id) < ids.index(c.id)

    def test_cache_marks(self):
        r = RDD.source("a", 100).map().cache()
        assert r.cached


class TestDAGCompiler:
    def test_map_only_job_single_stage(self):
        job = RDD.source("d", 1000).map().filter().count()
        plan = compile_job(job)
        assert plan.num_stages == 1
        stage = plan.stages[0]
        assert stage.input_mb == pytest.approx(1000)
        assert stage.shuffle_read_mb == 0

    def test_shuffle_cuts_two_stages(self):
        job = RDD.source("d", 1000).map().reduce_by_key(size_ratio=0.3).count()
        plan = compile_job(job)
        assert plan.num_stages == 2
        topo = plan.topological()
        map_stage, reduce_stage = topo[0], topo[1]
        assert map_stage.shuffle_write_mb == pytest.approx(300)
        assert reduce_stage.shuffle_read_mb == pytest.approx(300)
        assert reduce_stage.depends_on == [map_stage.stage_id]

    def test_join_produces_three_stages(self):
        a = RDD.source("a", 600).map()
        b = RDD.source("b", 400).map()
        plan = compile_job(a.join(b).count())
        assert plan.num_stages == 3
        reduce_stage = [s for s in plan.stages if s.shuffle_read_mb > 0]
        assert len(reduce_stage) == 1
        assert reduce_stage[0].shuffle_read_mb == pytest.approx(1000)
        assert len(reduce_stage[0].depends_on) == 2

    def test_shuffle_write_split_by_parent_share(self):
        a = RDD.source("a", 600)
        b = RDD.source("b", 400)
        plan = compile_job(a.join(b).count())
        writes = sorted(s.shuffle_write_mb for s in plan.stages if s.shuffle_write_mb > 0)
        assert writes == [pytest.approx(400), pytest.approx(600)]

    def test_cached_rdd_materialized_then_truncates(self):
        cached = RDD.source("d", 1000).map().cache()
        registry = CacheRegistry()
        plan1 = compile_job(cached.count(), registry)
        assert plan1.stages[0].materializes
        rdd_id, mb, _ = plan1.stages[0].materializes[0]
        registry.materialize(rdd_id, mb, 100.0)

        # Second job over the same cached RDD reads the cache, not the source.
        plan2 = compile_job(cached.map().count(), registry, first_stage_id=10)
        stage = plan2.stages[0]
        assert stage.cached_read_mb == pytest.approx(1000)
        assert stage.input_mb == 0

    def test_uncached_second_job_recomputes(self):
        base = RDD.source("d", 1000).map()
        registry = CacheRegistry()
        compile_job(base.count(), registry)
        plan2 = compile_job(base.filter().count(), registry)
        assert plan2.stages[0].input_mb == pytest.approx(1000)

    def test_recompute_hints_filled(self):
        cached = RDD.source("d", 1000).map(cpu_s_per_mb=0.02).group_by_key().cache()
        plan = compile_job(cached.count())
        producing = [s for s in plan.stages if s.materializes][0]
        assert producing.recompute_cpu_s_per_mb > 0
        # Grouped data re-fetches its shuffle input: ~1 byte per byte.
        assert producing.recompute_io_mb_per_mb == pytest.approx(1.0, rel=0.1)

    def test_stage_ids_offset(self):
        job = RDD.source("d", 100).reduce_by_key().count()
        plan = compile_job(job, first_stage_id=5)
        assert {s.stage_id for s in plan.stages} == {5, 6}

    def test_collect_lands_on_final_stage(self):
        job = RDD.source("d", 100).map().collect(result_fraction=0.1)
        plan = compile_job(job)
        assert plan.stages[0].collect_mb == pytest.approx(10)

    def test_save_marks_output(self):
        job = RDD.source("d", 100).sort_by().save()
        plan = compile_job(job)
        final = plan.topological()[-1]
        assert final.writes_output
        assert final.output_mb == pytest.approx(100)

    def test_graph_is_acyclic_dag(self):
        a = RDD.source("a", 500).map()
        plan = compile_job(a.join(a.filter()).reduce_by_key().count())
        assert nx.is_directed_acyclic_graph(_stage_digraph(plan))


#: input sizes from a few tasks per stage to thousands
SUITE_SIZES_MB = (100.0, 500.0, 1000.0, 5000.0, 10000.0, 20000.0, 50000.0)


def _ids(stages):
    return [s.stage_id for s in stages]


class TestTopologicalOrder:
    """``JobPlan.topological`` against networkx's topological sort.
    Stage order fixes every seeded number the simulator draws, and the
    recorded results (examples, the paper's tables) were drawn in
    networkx's order."""

    @pytest.mark.parametrize("family", sorted(SUITE))
    def test_suite_plans_match_networkx(self, family):
        for input_mb in SUITE_SIZES_MB:
            jobs = SUITE[family]().jobs(input_mb)
            for job in compile_workload(family, input_mb, jobs).jobs:
                want = list(nx.topological_sort(_stage_digraph(job.plan)))
                assert _ids(job.plan.topological()) == want
                assert _ids(c.stage for c in job.stages) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hand_built_plans_match_networkx(self, data):
        """Random plans whose ids, plan order and dependency order all
        differ, with repeated dependencies and, sometimes, one extra
        edge that may close a cycle."""
        n = data.draw(st.integers(1, 9), label="stages")
        ids = data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n,
                                 unique=True), label="ids")
        rank = data.draw(st.permutations(range(n)), label="rank")
        stages = []
        for k in range(n):
            earlier = [ids[j] for j in range(n) if rank[j] < rank[k]]
            deps = data.draw(st.lists(st.sampled_from(earlier), max_size=4)
                             if earlier else st.just([]), label="deps")
            stages.append(StageProfile(stage_id=ids[k], name=f"s{k}",
                                       num_tasks_hint=None, depends_on=deps))
        if data.draw(st.booleans(), label="extra edge"):
            k = data.draw(st.integers(0, n - 1), label="child")
            stages[k].depends_on.append(data.draw(st.sampled_from(ids)))
        plan = JobPlan("hand-built", stages)
        graph = _stage_digraph(plan)
        if nx.is_directed_acyclic_graph(graph):
            assert _ids(plan.topological()) == list(nx.topological_sort(graph))
        else:
            with pytest.raises(ValueError, match="cyclic stage graph"):
                plan.topological()

    def test_cyclic_plan_raises(self):
        def stage(stage_id, *deps):
            return StageProfile(stage_id=stage_id, name=f"s{stage_id}",
                                num_tasks_hint=None, depends_on=list(deps))

        cyclic = JobPlan("loop", [stage(0), stage(1, 0, 2), stage(2, 1)])
        with pytest.raises(ValueError,
                           match="job 'loop' compiled to a cyclic stage graph"):
            cyclic.topological()
        self_loop = JobPlan("self", [stage(0), stage(1, 1)])
        with pytest.raises(ValueError, match="cyclic stage graph"):
            self_loop.topological()


class TestCacheRegistry:
    def test_evict_idempotent(self):
        reg = CacheRegistry()
        reg.materialize(1, 100, 50)
        reg.evict(1)
        reg.evict(1)  # no error
        assert not reg.is_materialized(1)
        assert reg.total_cached_mb == 0

    def test_weighted_recompute_means(self):
        reg = CacheRegistry()
        reg.materialize(1, 100, 50, recompute_cpu_s_per_mb=0.1, recompute_io_mb_per_mb=2.0)
        reg.materialize(2, 300, 50, recompute_cpu_s_per_mb=0.02, recompute_io_mb_per_mb=1.0)
        assert reg.mean_recompute_cpu_s_per_mb() == pytest.approx(0.04)
        assert reg.mean_recompute_io_mb_per_mb() == pytest.approx(1.25)

    def test_empty_registry_defaults(self):
        reg = CacheRegistry()
        assert reg.mean_recompute_cpu_s_per_mb() == pytest.approx(0.02)
        assert reg.mean_recompute_io_mb_per_mb() == pytest.approx(1.0)
