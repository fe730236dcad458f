"""Declarative hot-path table for the array-program rules.

The perf-sensitive RA rules (hidden copies, python-level element loops,
loop-invariant allocation) only matter where throughput matters.  Rather
than guessing from names, the hot set is *declared* here and seeded from
the surfaces the repo already measures: the ``PhaseProfiler`` phases
(suggest / evaluate / ingest / similarity), the costmodel's joint (S, N) batch
sweep, and the shared-memory columnar codec.  Each entry names root
functions by qname *suffix* (``engine.shm.decode_configs`` matches both
``repro.engine.shm.decode_configs`` and a fixture package's
``ra003_pkg.engine.shm.decode_configs``), and the hot set is the closure
of those roots over the call graph's **resolved** edges — the same
soundness caveat as the flow pass: a helper reached only through
dynamic dispatch is invisible and will not be linted as hot.

Files outside the ``repro`` package tree (fixtures, scratch snippets)
are treated as entirely hot, mirroring the per-file rules' scope
semantics: scoping narrows enforcement inside the package, it never
lets external known-bad code pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CallGraph

__all__ = ["HotPath", "HOT_PATHS", "resolve_hot_functions"]


@dataclass(frozen=True)
class HotPath:
    """One profiled surface and the root functions that implement it."""

    phase: str                   #: PhaseProfiler phase or bench surface
    roots: tuple[str, ...]       #: qname suffixes, resolved per graph
    reason: str


#: the table — one row per surface the profiler/benches time
HOT_PATHS: tuple[HotPath, ...] = (
    HotPath(
        phase="suggest",
        roots=(
            "tuning.bo.bayesopt.BayesOptTuner.suggest",
            "tuning.bo.gp.GaussianProcess.fit",
            "tuning.bo.gp.GaussianProcess.update",
            "tuning.bo.gp.GaussianProcess.predict",
        ),
        reason="PhaseProfiler 'suggest': surrogate fit/update + "
               "acquisition maximisation per proposal",
    ),
    HotPath(
        phase="evaluate",
        roots=(
            "sparksim.simulator.SparkSimulator.run_batch",
            "sparksim.costmodel.build_batch_inputs",
            "sparksim.costmodel.compute_stage_cost_batch",
            "sparksim.costmodel.build_plan_arrays",
            "sparksim.costmodel.compute_plan_cost_batch",
        ),
        reason="PhaseProfiler 'evaluate': the (S, N) joint "
               "stage-candidate cost sweep behind the >=50k evals/s "
               "target",
    ),
    HotPath(
        phase="ingest",
        roots=(
            "core.serviced.frontend.ingest_production_runs",
            "core.characterization.signatures",
        ),
        reason="PhaseProfiler 'ingest': the production-run firehose — "
               "stage-major batch simulation, columnar signatures and "
               "one log append per run",
    ),
    HotPath(
        phase="similarity",
        roots=(
            "core.simindex.SignatureIndex.find_similar",
            "core.similarity.find_similar_workloads",
        ),
        reason="PhaseProfiler 'similarity': the (W, d) signature "
               "nearest-neighbour op on every transfer decision",
    ),
    HotPath(
        phase="shm-codec",
        roots=(
            "engine.shm.encode_configs",
            "engine.shm.decode_configs",
            "engine.shm.write_payload",
            "engine.shm.read_payload",
        ),
        reason="columnar shared-memory codec: once per dispatch batch "
               "on the process-pool path",
    ),
)


def resolve_hot_functions(
        graph: CallGraph) -> tuple[dict[str, str], frozenset[str]]:
    """Resolve the table against one call graph.

    Returns ``(hot, roots)``: ``hot`` maps every hot function's qname
    to the phase that makes it hot (roots first, then every function
    reachable from a root over resolved internal edges), and ``roots``
    is the set of function qnames a table suffix actually matched —
    the health number the repo gate pins so a rename cannot silently
    turn the perf rules vacuous, and the start set hot-path chains are
    rendered from.
    """
    hot: dict[str, str] = {}
    roots: set[str] = set()
    for entry in HOT_PATHS:
        for suffix in entry.roots:
            for qname in graph.functions:
                if qname == suffix or qname.endswith("." + suffix):
                    roots.add(qname)
                    hot.setdefault(qname, entry.phase)
    stack = list(hot)
    while stack:
        qname = stack.pop()
        for site in graph.sites_of(qname):
            if site.kind != "internal" or site.callee not in graph.functions:
                continue
            if site.callee not in hot:
                hot[site.callee] = hot[qname]
                stack.append(site.callee)
    return hot, frozenset(roots)
