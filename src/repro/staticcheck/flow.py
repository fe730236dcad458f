"""Interprocedural flow rules (``RF001``, ``RF002``, ``RF004``, ``RF005``).

Where the per-file rules (:mod:`repro.staticcheck.rules`) pin invariants
inside one function, these walk :class:`~repro.staticcheck.graph.CallGraph`
edges and report findings with the full call chain from the analysis
entry point down to the violating statement.  Every finding's ``chain``
hops render as ``"path:line caller -> callee"``.

Soundness: a flow rule only follows **resolved** edges.  Calls the graph
could not resolve sit in its ``unresolved`` bucket and are *not*
traversed — so a violation hidden behind dynamic dispatch can escape.
The CLI prints the resolution rate for exactly this reason; treat a
clean ``--flow`` run as "clean over the resolved 90-odd percent", not as
a proof.

Suppressions use the same ``# staticcheck: ignore[RFxxx]`` markers as
the per-file rules and apply at the line the finding lands on — the
*callee*'s line, not the entry point's.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

from .graph import CallGraph, FunctionInfo, build_call_graph
from .model import Finding, LintResult, Severity, parse_suppressions

__all__ = [
    "FlowRule",
    "FlowReport",
    "ALL_FLOW_RULES",
    "get_flow_rules",
    "flow_rule_catalogue",
    "run_flow_rules",
    "lint_flow",
]

# --------------------------------------------------------------------------
# shared classification helpers
# --------------------------------------------------------------------------

#: module-path segments that mark seeding-contract entry points (RF001)
_SEEDED_SEGMENTS = frozenset({"sparksim", "tuning", "engine"})

#: module-path segments whose exception handlers are audited (RF004)
_DISPATCH_SEGMENTS = frozenset({"engine", "retry"})

#: names whose presence in a seed expression certifies provenance
_SEEDY_RE = re.compile(r"(seed|rng|salt|entropy|derive)", re.IGNORECASE)

#: attribute/name fragments that count as recording a failure (RF004)
_FAILURE_RE = re.compile(
    r"(fail|counter|record|retr|error|timeout|exhaust|degrad|abort)",
    re.IGNORECASE,
)


def _is_rng_construction(external: str) -> bool:
    """Constructions and global-state draws — NOT seeded-generator usage.

    ``numpy.random.default_rng`` (a construction) is in; drawing from an
    already-constructed generator (``numpy.random.default_rng.normal``,
    i.e. ``self.rng.normal(...)``) is the sanctioned pattern and out.
    Legacy module-level APIs (``numpy.random.rand``, ``random.randint``)
    draw from hidden global state, so they count as unseedable
    constructions too.
    """
    for marker in (".default_rng.", ".Generator.", ".RandomState.",
                   ".Random."):
        if marker in external:
            return False
    base = external.rsplit(".", 1)[-1]
    if base in {"default_rng", "Generator", "RandomState", "Random"}:
        return True
    return external.startswith("numpy.random.") \
        or external.startswith("random.")


def _is_rng_usage(external: str) -> bool:
    return (
        _is_rng_construction(external)
        or external.startswith("numpy.random.")
        or external.startswith("random.")
        or ".default_rng." in external
    )


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.now",
    "datetime.utcnow", "uuid.uuid4", "uuid.uuid1", "os.urandom",
})


def _is_wall_clock(external: str) -> bool:
    return external in _WALL_CLOCK or external.endswith(".datetime.now")


def _module_segments(module: str) -> frozenset[str]:
    return frozenset(module.split("."))


def _dotted_text(func: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def _call_node_at(info: FunctionInfo, line: int, col: int,
                  text: str) -> ast.Call | None:
    """Find the Call a site refers to; chained calls like
    ``default_rng(s).normal()`` share (line, col) with their receiver, so
    the rendered callee text disambiguates."""
    fallback: ast.Call | None = None
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call) and node.lineno == line \
                and node.col_offset == col:
            if _dotted_text(node.func) == text:
                return node
            if fallback is None:
                fallback = node
    return fallback


# --------------------------------------------------------------------------
# rule scaffolding
# --------------------------------------------------------------------------

class FlowRule:
    """Base class: one interprocedural invariant over the call graph."""

    rule_id: ClassVar[str] = "RF000"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, graph: CallGraph) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str,
               chain: tuple[str, ...] = ()) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule_id=self.rule_id,
            message=message, severity=self.severity, chain=chain,
        )


# --------------------------------------------------------------------------
# RF001 — seed provenance
# --------------------------------------------------------------------------

class _Tainter:
    """Decides whether a seed expression traces back to real provenance.

    Tainted (= acceptable) sources: any name or attribute matching the
    seed/rng/salt pattern (parameters and ``self.salt`` style state), a
    call whose name documents a derivation (``derive_seed``,
    ``_seed_for``), and any expression built from tainted parts
    (``[self.salt & MASK, seed & MASK]`` stays tainted).  Locals are
    chased through their assignments, so ``s = seed + i`` then
    ``default_rng(s)`` passes.
    """

    def __init__(self, info: FunctionInfo):
        self.assignments: dict[str, list[ast.expr]] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assignments.setdefault(target.id, []).append(
                            node.value
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                self.assignments.setdefault(node.target.id, []).append(
                    node.value
                )

    def tainted(self, expr: ast.expr, seen: frozenset[str] = frozenset()) -> bool:
        if isinstance(expr, ast.Name):
            if _SEEDY_RE.search(expr.id):
                return True
            if expr.id in seen:
                return False
            return any(
                self.tainted(value, seen | {expr.id})
                for value in self.assignments.get(expr.id, [])
            )
        if isinstance(expr, ast.Attribute):
            if _SEEDY_RE.search(expr.attr):
                return True
            return self.tainted(expr.value, seen)
        if isinstance(expr, ast.Call):
            chain: list[str] = []
            func = expr.func
            while isinstance(func, ast.Attribute):
                chain.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name):
                chain.append(func.id)
            if any(_SEEDY_RE.search(part) for part in chain):
                return True
            return any(self.tainted(arg, seen) for arg in expr.args) or any(
                kw.value is not None and self.tainted(kw.value, seen)
                for kw in expr.keywords
            )
        if isinstance(expr, ast.Constant):
            return False
        return any(
            self.tainted(child, seen)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )


class SeedProvenanceRule(FlowRule):
    """RF001: reachable RNG constructions must carry seed provenance."""

    rule_id = "RF001"
    summary = (
        "RNG constructions reachable from sparksim/tuning/engine entry "
        "points must be seeded from an explicit seed/rng parameter or a "
        "documented derivation"
    )
    rationale = (
        "Per-candidate determinism is the contract the whole execution "
        "history rests on; one unseeded default_rng() buried a call deep "
        "silently unfixes every downstream fingerprint."
    )

    def check(self, graph: CallGraph) -> list[Finding]:
        roots = [
            info.qname
            for info in graph.functions.values()
            if info.is_public
            and _module_segments(info.module) & _SEEDED_SEGMENTS
        ]
        parents = graph.reach_parents(roots)
        findings: list[Finding] = []
        for qname in sorted(parents):
            info = graph.functions[qname]
            tainter: _Tainter | None = None
            for site in graph.sites_of(qname):
                if site.external is None \
                        or not _is_rng_construction(site.external):
                    continue
                call = _call_node_at(info, site.line, site.col, site.text)
                if call is None:        # pragma: no cover - defensive
                    continue
                if tainter is None:
                    tainter = _Tainter(info)
                seed_args = list(call.args) + [
                    kw.value for kw in call.keywords if kw.value is not None
                ]
                if seed_args and any(tainter.tainted(a) for a in seed_args):
                    continue
                reason = ("no seed argument" if not seed_args
                          else "seed has no provenance (literal or "
                               "underived value)")
                findings.append(self.report(
                    site.path, site.line, site.col,
                    f"RNG constructed via {site.external} in {qname} "
                    f"with {reason}; pass a seed/rng parameter or a "
                    f"documented derivation",
                    chain=graph.chain_to(parents, qname),
                ))
        return findings


# --------------------------------------------------------------------------
# RF002 — cache-purity closure
# --------------------------------------------------------------------------

#: constructors whose result counts as a fresh function-local object
_FRESH_CALL_NAMES = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "bytearray",
    "OrderedDict", "defaultdict", "Counter", "deque", "sorted",
})


def _fresh_locals(node: ast.AST) -> set[str]:
    """Names assigned only from fresh, function-local values."""
    fresh: set[str] = set()
    spoiled: set[str] = set()
    for sub in ast.walk(node):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(sub, ast.Assign):
            targets, value = sub.targets, sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets, value = [sub.target], sub.value
        if value is None:
            continue
        is_fresh = isinstance(value, (
            ast.Dict, ast.List, ast.Set, ast.Tuple, ast.Constant,
            ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
        ))
        if not is_fresh and isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            is_fresh = name in _FRESH_CALL_NAMES
        for target in targets:
            if isinstance(target, ast.Name):
                if is_fresh and target.id not in spoiled:
                    fresh.add(target.id)
                else:
                    spoiled.add(target.id)
                    fresh.discard(target.id)
    return fresh


class CachePurityRule(FlowRule):
    """RF002: the cache-key/fingerprint closure must be pure."""

    rule_id = "RF002"
    summary = (
        "every callable reachable from cache_key()/fingerprint roots must "
        "be pure: no writes to non-local state, no RNG, no wall clock"
    )
    rationale = (
        "Cache hits replace execution; an impure key path makes two "
        "identical configurations hash apart (wasted reruns) or distinct "
        "ones collide (wrong results served from cache)."
    )

    @staticmethod
    def _roots(graph: CallGraph) -> list[str]:
        return [
            info.qname
            for info in graph.functions.values()
            if info.name == "cache_key" or "fingerprint" in info.name
        ]

    def check(self, graph: CallGraph) -> list[Finding]:
        parents = graph.reach_parents(self._roots(graph))
        findings: list[Finding] = []
        for qname in sorted(parents):
            info = graph.functions[qname]
            chain = graph.chain_to(parents, qname)
            findings.extend(self._check_function(graph, info, chain))
        return findings

    def _check_function(self, graph: CallGraph, info: FunctionInfo,
                        chain: tuple[str, ...]) -> list[Finding]:
        findings: list[Finding] = []
        fresh = _fresh_locals(info.node)
        self_name = info.self_name
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                findings.append(self.report(
                    info.path, node.lineno, node.col_offset,
                    f"{info.qname} declares `global "
                    f"{', '.join(node.names)}` inside the cache-key "
                    f"closure; fingerprints must not touch module state",
                    chain=chain,
                ))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    base = target.value
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in fresh:
                        continue
                    what = ("attribute" if isinstance(target, ast.Attribute)
                            else "subscript")
                    owner = (base.id if isinstance(base, ast.Name)
                             else "<expr>")
                    if owner == self_name:
                        desc = f"self.{_store_name(target)}"
                    else:
                        desc = f"{owner} ({what} store)"
                    findings.append(self.report(
                        info.path, target.lineno, target.col_offset,
                        f"{info.qname} writes non-local state "
                        f"({desc}) inside the cache-key closure",
                        chain=chain,
                    ))
        for site in graph.sites_of(info.qname):
            if site.external is None:
                continue
            if _is_rng_usage(site.external):
                findings.append(self.report(
                    site.path, site.line, site.col,
                    f"{info.qname} draws randomness ({site.external}) "
                    f"inside the cache-key closure",
                    chain=chain,
                ))
            elif _is_wall_clock(site.external):
                findings.append(self.report(
                    site.path, site.line, site.col,
                    f"{info.qname} reads the wall clock ({site.external}) "
                    f"inside the cache-key closure",
                    chain=chain,
                ))
        return findings


def _store_name(target: ast.expr) -> str:
    if isinstance(target, ast.Attribute):
        return target.attr
    return "<subscript>"


# --------------------------------------------------------------------------
# RF004 — exception-flow audit
# --------------------------------------------------------------------------

class ExceptionFlowRule(FlowRule):
    """RF004: no silent exception swallow in engine/retry dispatch."""

    rule_id = "RF004"
    summary = (
        "every except handler reachable in engine/retry dispatch must "
        "re-raise, return a failure-marked result, or record into the "
        "failure counters"
    )
    rationale = (
        "The failure path is a first-class contract (PR 2): a swallowed "
        "exception turns a counted, retried, re-tuned fault into a "
        "silently wrong run."
    )

    def check(self, graph: CallGraph) -> list[Finding]:
        roots = [
            info.qname
            for info in graph.functions.values()
            if info.is_public
            and _module_segments(info.module) & _DISPATCH_SEGMENTS
        ]
        parents = graph.reach_parents(roots)
        findings: list[Finding] = []
        for qname in sorted(parents):
            info = graph.functions[qname]
            if not _module_segments(info.module) & _DISPATCH_SEGMENTS:
                # reachable helper living outside engine/retry modules is
                # out of contract scope
                continue
            chain = graph.chain_to(parents, qname)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if self._handler_ok(node):
                    continue
                findings.append(self.report(
                    info.path, node.lineno, node.col_offset,
                    f"except handler in {info.qname} swallows the "
                    f"exception: add a re-raise, return a failure-marked "
                    f"result, or record into FailureCounters",
                    chain=chain,
                ))
        return findings

    @staticmethod
    def _handler_ok(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, (ast.Raise, ast.Return, ast.Continue,
                                 ast.Break)):
                return True
            if isinstance(node, ast.Attribute) \
                    and _FAILURE_RE.search(node.attr):
                return True
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and _FAILURE_RE.search(node.id):
                return True
        return False


# --------------------------------------------------------------------------
# RF005 — scalar/batch divergence guard
# --------------------------------------------------------------------------

#: cost/effect leaves both halves of a scalar/batch pair must agree on,
#: by basename; a ``_batch`` suffix is stripped before comparison so the
#: vectorized twin of a leaf counts as the same leaf.
_LEAF_NAMES = frozenset({
    "compute_stage_cost", "compute_plan_cost_batch",
    "schedule_stage",
    "gc_fraction", "shuffle_read", "shuffle_write", "spill_outcome",
    "serializer_of", "codec_of", "resolve_num_tasks",
    "grant_resources", "_sample_durations", "_apply_speculation",
    "_list_schedule", "_median_1d", "_median_quantile_1d",
    "_sample_duration_rows", "_schedule_rows",
})

#: reviewed divergences, keyed by the scalar half's qualified name:
#: (scalar_only, batch_only) leaf basenames that are allowed to differ.
_PAIR_ALLOWANCES: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    # run_batch keeps the scalar path reachable for faults and rejected
    # grants, so its closure is a strict superset of run's.  The extra
    # batch leaves are the stage-major kernels: the joint (stages x
    # columns) cost sweep, which fuses the compute_stage_cost loop into
    # one compiled program; the (rows x tasks) twins of
    # _sample_durations and the list-schedule/TaskMetrics reductions;
    # and the partition median/quantile kernels the one-row scheduler
    # (_schedule_1d) uses where schedule_stage calls np.median /
    # np.quantile.  Bit-identity of the kernels against numpy is pinned
    # by test_scheduler_equivalence.py, and of the whole batch (OOM
    # masks, spill arithmetic, per-generator draw order, makespan and
    # partition statistics) by test_batch_identity.py, including
    # one-config batches of up to 128 runs and 512-candidate batches.
    "repro.sparksim.simulator.SparkSimulator.run": (
        frozenset(),
        frozenset({"compute_plan_cost_batch", "_sample_duration_rows",
                   "_schedule_rows", "_median_1d", "_median_quantile_1d"}),
    ),
}


def _normalize_leaf(name: str) -> str:
    return name[:-6] if name.endswith("_batch") else name


class ScalarBatchDivergenceRule(FlowRule):
    """RF005: paired scalar/batch implementations share their leaf set."""

    rule_id = "RF005"
    summary = (
        "paired scalar/batch implementations (f / f_batch) must bottom "
        "out in the same whitelisted cost/effect leaf set"
    )
    rationale = (
        "The batch fast path is only legitimate while bit-identical to "
        "the scalar path; a leaf that one side calls and the other "
        "doesn't is exactly how drift starts, and hypothesis finds it "
        "days later if at all."
    )

    def check(self, graph: CallGraph) -> list[Finding]:
        findings: list[Finding] = []
        for scalar_q in sorted(graph.functions):
            batch_q = f"{scalar_q}_batch"
            if batch_q not in graph.functions:
                continue
            scalar_leaves = self._leaves(graph, scalar_q)
            batch_leaves = self._leaves(graph, batch_q)
            if not scalar_leaves and not batch_leaves:
                # pair is outside the cost/effect surface (e.g. a tuner's
                # suggest/suggest_batch) — nothing to compare
                continue
            allowed_scalar, allowed_batch = _PAIR_ALLOWANCES.get(
                scalar_q, (frozenset(), frozenset())
            )
            scalar_norm = {_normalize_leaf(n) for n in scalar_leaves}
            batch_norm = {_normalize_leaf(n) for n in batch_leaves}
            scalar_only = scalar_norm - batch_norm \
                - {_normalize_leaf(n) for n in allowed_scalar}
            batch_only = batch_norm - scalar_norm \
                - {_normalize_leaf(n) for n in allowed_batch}
            if not scalar_only and not batch_only:
                continue
            info = graph.functions[batch_q]
            divergence: list[str] = []
            if scalar_only:
                divergence.append(
                    "scalar-only leaves: " + ", ".join(sorted(scalar_only))
                )
            if batch_only:
                divergence.append(
                    "batch-only leaves: " + ", ".join(sorted(batch_only))
                )
            sample = sorted(scalar_only or batch_only)[0]
            root = scalar_q if scalar_only else batch_q
            findings.append(self.report(
                info.path, info.lineno, 0,
                f"{scalar_q} and {batch_q} bottom out in different "
                f"cost/effect leaves ({'; '.join(divergence)}); align the "
                f"implementations or record the divergence in the "
                f"reviewed allowance table",
                chain=self._chain_to_leaf(graph, root, sample),
            ))
        return findings

    @staticmethod
    def _leaves(graph: CallGraph, root: str) -> set[str]:
        closure = graph.closure([root])
        return {
            graph.functions[q].name
            for q in closure
            if q != root and graph.functions[q].name in _LEAF_NAMES
        }

    @staticmethod
    def _chain_to_leaf(graph: CallGraph, root: str,
                       leaf_basename: str) -> tuple[str, ...]:
        parents = graph.reach_parents([root])
        for qname in sorted(parents):
            if graph.functions[qname].name == leaf_basename:
                return graph.chain_to(parents, qname)
        return ()


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

ALL_FLOW_RULES: tuple[type[FlowRule], ...] = (
    SeedProvenanceRule,
    CachePurityRule,
    ExceptionFlowRule,
    ScalarBatchDivergenceRule,
)


def get_flow_rules(ids: Iterable[str] | None = None) -> list[type[FlowRule]]:
    if ids is None:
        return list(ALL_FLOW_RULES)
    wanted = {i.upper() for i in ids}
    known = {r.rule_id for r in ALL_FLOW_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown flow rule id(s): {', '.join(sorted(unknown))}"
        )
    return [r for r in ALL_FLOW_RULES if r.rule_id in wanted]


def flow_rule_catalogue() -> list[dict[str, str]]:
    return [
        {
            "rule": rule.rule_id,
            "severity": rule.severity.value,
            "summary": rule.summary,
            "rationale": rule.rationale,
        }
        for rule in ALL_FLOW_RULES
    ]


@dataclass
class FlowReport:
    """Outcome of one flow pass: findings + graph health numbers."""

    result: LintResult
    stats: dict[str, object] = field(default_factory=dict)


def run_flow_rules(graph: CallGraph,
                   rules: Sequence[type[FlowRule]] = ALL_FLOW_RULES
                   ) -> list[Finding]:
    findings: list[Finding] = []
    for rule_cls in rules:
        findings.extend(rule_cls().check(graph))
    return findings


def lint_flow(paths: Iterable[str],
              rules: Sequence[type[FlowRule]] = ALL_FLOW_RULES,
              graph: CallGraph | None = None) -> FlowReport:
    """Build the call graph over ``paths`` and run the flow rules.

    Suppressions apply at the line each finding lands on — the callee's
    line — using the same ``# staticcheck: ignore[RFxxx]`` markers as
    the per-file pass.
    """
    if graph is None:
        graph = build_call_graph(paths)
    result = LintResult(n_files=len(graph.modules))
    suppression_cache: dict[str, object] = {}
    for finding in run_flow_rules(graph, rules):
        suppressions = suppression_cache.get(finding.path)
        if suppressions is None:
            mod = graph.module_of_path(finding.path)
            source = mod.source if mod is not None else ""
            suppressions = parse_suppressions(source)
            suppression_cache[finding.path] = suppressions
        if suppressions.silences(finding.line, finding.rule_id):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return FlowReport(result=result, stats=graph.resolution_stats())
