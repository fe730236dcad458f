"""Concurrency invariant rules (``RC001``—``RC003``, ``RC005``).

The service layer (threaded ``ShardPool``, asyncio ``ServiceFrontEnd``,
lock-disciplined ``HistoryLog``/``SignatureIndex``) relies on
conventions a reviewer has to *remember*: every telemetry counter is
written under its owner's lock, ``_*_locked`` helpers are only entered
with the lock held, nothing blocks inside an ``async def``, and locks
nest in one global order.  This pass infers the repo's lock set
and enforces those conventions as RC-series rules:

* **RC001** lock-guard inference — an attribute written under
  ``with self._lock`` on some paths and lock-free on others.
* **RC002** ``_*_locked`` naming convention — such methods must only be
  reachable from callers that hold the owning lock (``via`` chains).
* **RC003** blocking calls (``time.sleep``, ``Lock.acquire``,
  ``Future.result``, file I/O) reachable from an ``async def`` without
  an executor hand-off.
* **RC005** lock-acquisition-order cycles across the inferred lock set
  (potential deadlocks), plus non-reentrant re-acquisition.

Inference, not annotation: locks are discovered from
``self._x = threading.Lock()`` assignments, dataclass-style
``_x: threading.Lock = field(...)`` declarations, and module-level
``_X = threading.Lock()`` globals.  A method only ever called with a
lock held (directly under a ``with``, or transitively from such a
caller) is treated as *assumed-locked* — the ``_evaluate_batch_locked``
→ ``_dispatch`` idiom — computed as a decreasing fixpoint over call
sites.  ``__init__`` has exclusive access to the instance it is
constructing, so constructor writes are exempt and constructor call
sites count as holding every class lock.

Soundness mirrors the flow pass: only **resolved** edges are followed
and assumed-locked status is granted to private methods only, so the
verdict is "clean over the resolved surface", not a proof.  Suppressions
use the same ``# staticcheck: ignore[RCxxx]`` markers, applied at the
line the finding lands on.  The paired runtime half of this pass lives
in :mod:`repro.staticcheck.dynsan`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

from .graph import CallGraph, CallSite, FunctionInfo, ModuleInfo, \
    build_call_graph
from .model import Finding, LintResult, Severity, parse_suppressions

__all__ = [
    "ConcurrencyRule",
    "ConcurrencyReport",
    "LockModel",
    "build_lock_model",
    "ALL_CONCURRENCY_RULES",
    "get_concurrency_rules",
    "concurrency_rule_catalogue",
    "run_concurrency_rules",
    "lint_concurrency",
]

# --------------------------------------------------------------------------
# lock discovery
# --------------------------------------------------------------------------

#: lock constructors we model, by absolute dotted name
_LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
}

#: method names that mutate their receiver in place (``self.X.append(...)``
#: counts as a write to ``X`` for RC001)
_MUTATORS = frozenset({
    "append", "appendleft", "add", "discard", "remove", "clear", "extend",
    "insert", "pop", "popitem", "popleft", "update", "setdefault",
    "move_to_end", "sort", "reverse", "put", "put_nowait",
})


def _dotted_parts(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _resolve_factory(mod: ModuleInfo, expr: ast.expr) -> str | None:
    """Absolute dotted name of a constructor expression, via imports."""
    parts = _dotted_parts(expr)
    if not parts:
        return None
    target = mod.imports.get(parts[0])
    if target is None:
        return None
    return ".".join([target, *parts[1:]])


def _lock_kind_of_value(mod: ModuleInfo, value: ast.expr) -> str | None:
    """``threading.Lock()`` / ``RLock()`` (imported) -> "lock"/"rlock"."""
    if not isinstance(value, ast.Call):
        return None
    full = _resolve_factory(mod, value.func)
    if full is None:
        return None
    return _LOCK_FACTORIES.get(full)


def _lock_kind_of_annotation(mod: ModuleInfo, ann: ast.expr | None) -> str | None:
    """Dataclass-style ``_x: threading.Lock = field(...)`` declarations."""
    if ann is None:
        return None
    full = _resolve_factory(mod, ann)
    if full is None:
        return None
    return _LOCK_FACTORIES.get(full)


# --------------------------------------------------------------------------
# per-function scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Write:
    attr: str
    line: int
    col: int
    held: frozenset[str]
    nested: bool


@dataclass(frozen=True)
class _Acquire:
    lock_id: str
    line: int
    col: int
    held_before: frozenset[str]
    nested: bool


@dataclass
class _FnScan:
    """Lock-relevant facts of one function body."""

    writes: list[_Write] = field(default_factory=list)
    acquires: list[_Acquire] = field(default_factory=list)
    #: (line, col) of every Call -> (locks lexically held, inside nested def)
    call_held: dict[tuple[int, int], tuple[frozenset[str], bool]] = \
        field(default_factory=dict)
    #: (line, col) of calls that are directly awaited
    awaited: set[tuple[int, int]] = field(default_factory=set)


class _Scanner:
    """One lexical walk of a function: held-lock tracking + write sites.

    Entering a nested ``def``/``lambda`` resets the held set (the closure
    runs later, in an unknown lock context) and marks everything inside
    it ``nested`` so interprocedural rules can treat it separately.
    """

    def __init__(self, model: "LockModel", graph: CallGraph,
                 info: FunctionInfo):
        self._model = model
        self._graph = graph
        self._info = info
        self._self_name = info.self_name
        self._module_locks = model.module_locks.get(info.module, {})
        self.scan = _FnScan()

    def run(self) -> _FnScan:
        for stmt in self._info.node.body:
            self._visit(stmt, frozenset(), False)
        return self.scan

    # -- lock matching -----------------------------------------------------
    def _lock_of(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == self._self_name \
                and self._info.class_qname is not None:
            return self._model.lock_for_attr(self._info.class_qname, expr.attr)
        if isinstance(expr, ast.Name):
            return self._module_locks.get(expr.id)
        return None

    # -- write recording ---------------------------------------------------
    def _self_attr_of_target(self, target: ast.expr) -> str | None:
        """Innermost self-attribute of a write target.

        ``self._means[row] = ...`` writes ``_means``;
        ``self.failures.n_failures += 1`` writes ``failures``.
        """
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == self._self_name:
                return node.attr
            node = node.value
        return None

    def _record_write_target(self, target: ast.expr,
                             held: frozenset[str], nested: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write_target(elt, held, nested)
            return
        if isinstance(target, ast.Starred):
            self._record_write_target(target.value, held, nested)
            return
        attr = self._self_attr_of_target(target)
        if attr is not None:
            self.scan.writes.append(_Write(
                attr, target.lineno, target.col_offset, held, nested,
            ))

    # -- traversal ---------------------------------------------------------
    def _visit_children(self, node: ast.AST,
                        held: frozenset[str], nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, nested)

    def _visit(self, node: ast.AST, held: frozenset[str],
               nested: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            self._visit_children(node, frozenset(), True)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            cur = held
            for item in node.items:
                self._visit(item.context_expr, cur, nested)
                lock_id = self._lock_of(item.context_expr)
                if lock_id is not None:
                    self.scan.acquires.append(_Acquire(
                        lock_id, item.context_expr.lineno,
                        item.context_expr.col_offset, cur, nested,
                    ))
                    cur = cur | {lock_id}
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, cur, nested)
            for stmt in node.body:
                self._visit(stmt, cur, nested)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_write_target(target, held, nested)
        elif isinstance(node, (ast.AugAssign,)):
            self._record_write_target(node.target, held, nested)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_write_target(node.target, held, nested)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_write_target(target, held, nested)
        elif isinstance(node, ast.Await):
            if isinstance(node.value, ast.Call):
                self.scan.awaited.add(
                    (node.value.lineno, node.value.col_offset)
                )
        elif isinstance(node, ast.Call):
            self.scan.call_held[(node.lineno, node.col_offset)] = \
                (held, nested)
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS \
                    and isinstance(func.value, ast.Attribute) \
                    and isinstance(func.value.value, ast.Name) \
                    and func.value.value.id == self._self_name:
                self.scan.writes.append(_Write(
                    func.value.attr, node.lineno, node.col_offset,
                    held, nested,
                ))
        self._visit_children(node, held, nested)


# --------------------------------------------------------------------------
# the lock model
# --------------------------------------------------------------------------

class LockModel:
    """Inferred lock set + per-function lock facts over one call graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: class qname -> {attr: lock id}
        self.class_locks: dict[str, dict[str, str]] = {}
        #: module name -> {global name: lock id}
        self.module_locks: dict[str, dict[str, str]] = {}
        #: lock id -> "lock" | "rlock"
        self.lock_kinds: dict[str, str] = {}
        #: function qname -> scan
        self.scans: dict[str, _FnScan] = {}
        #: function qname -> locks held at every entry (assumed-locked)
        self.assumed: dict[str, frozenset[str]] = {}
        #: callee qname -> internal sites targeting it
        self.sites_by_callee: dict[str, list[CallSite]] = {}
        self._closure_memo: dict[str, frozenset[str]] = {}

    # -- lookups -----------------------------------------------------------
    def locks_of_class(self, class_qname: str) -> dict[str, str]:
        """attr -> lock id over the class and its analyzed bases."""
        out: dict[str, str] = {}
        for cls in reversed(self.graph.mro(class_qname)):
            out.update(self.class_locks.get(cls, {}))
        return out

    def lock_for_attr(self, class_qname: str, attr: str) -> str | None:
        for cls in self.graph.mro(class_qname):
            hit = self.class_locks.get(cls, {}).get(attr)
            if hit is not None:
                return hit
        return None

    def effective_held(self, qname: str, held: frozenset[str],
                       nested: bool) -> frozenset[str]:
        """Lexically held locks plus the function's assumed-locked set.

        Code inside a nested ``def`` runs later, outside the enclosing
        function's entry context, so it gets only its own lexical holds.
        """
        if nested:
            return held
        return held | self.assumed.get(qname, frozenset())

    def held_at_site(self, site: CallSite) -> tuple[frozenset[str], bool]:
        scan = self.scans.get(site.caller)
        if scan is None:
            return frozenset(), False
        return scan.call_held.get((site.line, site.col), (frozenset(), False))

    def closure_acquires(self, qname: str) -> frozenset[str]:
        """Locks ``qname`` may acquire, transitively over resolved edges."""
        memo = self._closure_memo
        if qname in memo:
            return memo[qname]
        memo[qname] = frozenset()            # cycle guard
        out: set[str] = set()
        scan = self.scans.get(qname)
        if scan is not None:
            out.update(a.lock_id for a in scan.acquires if not a.nested)
            for site in self.graph.sites_of(qname):
                if site.kind != "internal" \
                        or site.callee not in self.graph.functions:
                    continue
                _held, nested = self.held_at_site(site)
                if nested:
                    continue
                out.update(self.closure_acquires(site.callee))
        memo[qname] = frozenset(out)
        return memo[qname]

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        lock_map = {
            owner: sorted(locks.values())
            for owner, locks in sorted(self.class_locks.items())
            if locks
        }
        for mod_name, locks in sorted(self.module_locks.items()):
            if locks:
                lock_map[mod_name] = sorted(locks.values())
        return {
            "locks": len(self.lock_kinds),
            "classes_with_locks": sum(
                1 for locks in self.class_locks.values() if locks
            ),
            "module_locks": sum(
                len(locks) for locks in self.module_locks.values()
            ),
            "assumed_locked_methods": sum(
                1 for locked in self.assumed.values() if locked
            ),
            "lock_map": lock_map,
        }


def build_lock_model(graph: CallGraph) -> LockModel:
    model = LockModel(graph)
    _discover_locks(model)
    for qname in graph.functions:
        model.scans[qname] = _Scanner(
            model, graph, graph.functions[qname]
        ).run()
    for qname in graph.functions:
        for site in graph.sites_of(qname):
            if site.kind == "internal" and site.callee is not None:
                model.sites_by_callee.setdefault(site.callee, []).append(site)
    _compute_assumed(model)
    return model


def _discover_locks(model: LockModel) -> None:
    graph = model.graph
    for mod in graph.modules.values():
        # module-level ``_X = threading.Lock()`` globals
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                kind = _lock_kind_of_value(mod, stmt.value)
                if kind is not None:
                    name = stmt.targets[0].id
                    lock_id = f"{mod.name}.{name}"
                    model.module_locks.setdefault(mod.name, {})[name] = lock_id
                    model.lock_kinds[lock_id] = kind
        # dataclass-style annotated lock fields in class bodies
        for stmt in mod.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            class_qname = mod.classes.get(stmt.name)
            if class_qname is None:
                continue
            for member in stmt.body:
                if isinstance(member, ast.AnnAssign) \
                        and isinstance(member.target, ast.Name):
                    kind = _lock_kind_of_annotation(mod, member.annotation)
                    if kind is not None:
                        attr = member.target.id
                        lock_id = f"{class_qname}.{attr}"
                        model.class_locks.setdefault(
                            class_qname, {}
                        )[attr] = lock_id
                        model.lock_kinds[lock_id] = kind
    # ``self._x = threading.Lock()`` assignments in any method
    for info in graph.functions.values():
        if info.class_qname is None or info.self_name is None:
            continue
        mod = graph.modules.get(info.module)
        if mod is None:
            continue
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == info.self_name):
                continue
            kind = _lock_kind_of_value(mod, node.value)
            if kind is not None:
                lock_id = f"{info.class_qname}.{target.attr}"
                model.class_locks.setdefault(
                    info.class_qname, {}
                )[target.attr] = lock_id
                model.lock_kinds[lock_id] = kind


def _compute_assumed(model: LockModel) -> None:
    """Decreasing fixpoint: locks provably held at *every* call site.

    Granted to private methods of lock-owning classes only — a public
    method can always be entered by an unseen external caller, so it
    never gets assumed-locked status.  A call site contributes the locks
    lexically held there, plus the caller's own assumed set when the
    caller is a method of the same class; a same-class ``__init__``
    caller contributes every class lock (constructor exclusivity); a
    call from inside a nested ``def`` contributes nothing.
    """
    graph = model.graph
    targets: list[str] = []
    for qname, info in graph.functions.items():
        if info.class_qname is None or info.is_public \
                or info.name == "__init__":
            continue
        cls_locks = frozenset(model.locks_of_class(info.class_qname).values())
        if not cls_locks:
            continue
        targets.append(qname)
        sites = model.sites_by_callee.get(qname)
        model.assumed[qname] = cls_locks if sites else frozenset()
    changed = True
    while changed:
        changed = False
        for qname in targets:
            info = graph.functions[qname]
            cls_locks = frozenset(
                model.locks_of_class(info.class_qname).values()
            ) if info.class_qname else frozenset()
            sites = model.sites_by_callee.get(qname, [])
            if not sites:
                continue
            new = cls_locks
            for site in sites:
                caller = graph.functions.get(site.caller)
                held, nested = model.held_at_site(site)
                if nested:
                    contribution: frozenset[str] = frozenset()
                elif caller is not None \
                        and caller.class_qname == info.class_qname \
                        and caller.name == "__init__":
                    contribution = cls_locks
                else:
                    effective = held
                    if caller is not None \
                            and caller.class_qname == info.class_qname:
                        effective = held | model.assumed.get(
                            site.caller, frozenset()
                        )
                    contribution = effective & cls_locks
                new &= contribution
                if not new:
                    break
            if new != model.assumed[qname]:
                model.assumed[qname] = new
                changed = True


# --------------------------------------------------------------------------
# rule scaffolding
# --------------------------------------------------------------------------

class ConcurrencyRule:
    """Base class: one concurrency invariant over graph + lock model."""

    rule_id: ClassVar[str] = "RC000"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, graph: CallGraph,
              model: LockModel) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str,
               chain: tuple[str, ...] = ()) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule_id=self.rule_id,
            message=message, severity=self.severity, chain=chain,
        )


def _fmt_locks(lock_ids: Iterable[str]) -> str:
    return ", ".join(sorted(lock_ids))


# --------------------------------------------------------------------------
# RC001 — lock-guard inference
# --------------------------------------------------------------------------

class LockGuardRule(ConcurrencyRule):
    """RC001: an attribute guarded on some write paths must be on all."""

    rule_id = "RC001"
    summary = (
        "an instance attribute written under the owner's lock anywhere "
        "must be written under it everywhere (outside __init__)"
    )
    rationale = (
        "A counter or cache bumped lock-free on one path while every "
        "other writer takes the lock is a data race that loses updates "
        "silently; the guard set is inferred, so new state inherits the "
        "discipline without annotations."
    )

    def check(self, graph: CallGraph, model: LockModel) -> list[Finding]:
        findings: list[Finding] = []
        for class_qname in sorted(graph.classes):
            locks = model.locks_of_class(class_qname)
            if not locks:
                continue
            lock_ids = frozenset(locks.values())
            lock_attrs = frozenset(locks)
            writes: dict[str, list[tuple[str, _Write, frozenset[str], bool]]] = {}
            for qname in sorted(graph.functions):
                info = graph.functions[qname]
                if info.class_qname != class_qname:
                    continue
                scan = model.scans[qname]
                is_init = info.name == "__init__"
                for write in scan.writes:
                    if write.attr in lock_attrs:
                        continue             # the lock attribute itself
                    effective = model.effective_held(
                        qname, write.held, write.nested
                    )
                    writes.setdefault(write.attr, []).append(
                        (qname, write, effective & lock_ids, is_init)
                    )
            for attr, entries in sorted(writes.items()):
                guards: set[str] = set()
                for _qname, _write, held_locks, is_init in entries:
                    if not is_init:
                        guards.update(held_locks)
                if not guards:
                    continue
                for qname, write, held_locks, is_init in entries:
                    if is_init or held_locks:
                        continue
                    info = graph.functions[qname]
                    findings.append(self.report(
                        info.path, write.line, write.col,
                        f"attribute `{attr}` of {class_qname} is written "
                        f"under {_fmt_locks(guards)} elsewhere but "
                        f"lock-free in {qname}",
                    ))
        return findings


# --------------------------------------------------------------------------
# RC002 — the _locked naming convention
# --------------------------------------------------------------------------

class LockedSuffixRule(ConcurrencyRule):
    """RC002: ``_*_locked`` methods are only entered with the lock held."""

    rule_id = "RC002"
    summary = (
        "a method named *_locked must only be called with its owning "
        "lock held (lexically, via an assumed-locked caller, or from "
        "__init__)"
    )
    rationale = (
        "The suffix is the repo's contract that the caller owns the "
        "critical section (HistoryLog._append_locked, "
        "SignatureIndex._sync_locked); a lock-free call site turns "
        "every invariant the method body relies on into a race."
    )

    def check(self, graph: CallGraph, model: LockModel) -> list[Finding]:
        findings: list[Finding] = []
        roots = sorted(
            q for q, f in graph.functions.items() if f.is_public
        )
        parents = graph.reach_parents(roots)
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not info.name.endswith("_locked"):
                continue
            owner_ids: frozenset[str] = frozenset()
            if info.class_qname is not None:
                owner_ids = frozenset(
                    model.locks_of_class(info.class_qname).values()
                )
            if not owner_ids:
                owner_ids = frozenset(
                    model.module_locks.get(info.module, {}).values()
                )
            if not owner_ids:
                findings.append(self.report(
                    info.path, info.lineno, 0,
                    f"{qname} follows the `_locked` naming convention "
                    f"but no owning lock could be inferred for "
                    f"{info.class_qname or info.module}",
                ))
                continue
            for site in model.sites_by_callee.get(qname, []):
                caller = graph.functions.get(site.caller)
                held, nested = model.held_at_site(site)
                effective = held
                if not nested:
                    effective = held | model.assumed.get(
                        site.caller, frozenset()
                    )
                if effective & owner_ids:
                    continue
                if caller is not None and info.class_qname is not None \
                        and caller.class_qname == info.class_qname \
                        and not nested:
                    if caller.name == "__init__" \
                            or caller.name.endswith("_locked"):
                        continue
                findings.append(self.report(
                    site.path, site.line, site.col,
                    f"{site.caller} calls {qname} without holding "
                    f"{_fmt_locks(owner_ids)}",
                    chain=graph.chain_to(parents, site.caller),
                ))
        return findings


# --------------------------------------------------------------------------
# RC003 — blocking calls inside async defs
# --------------------------------------------------------------------------

_BLOCKING_EXACT = frozenset({
    "time.sleep", "select.select", "signal.pause", "os.waitpid",
    "socket.create_connection", "urllib.request.urlopen",
    "builtins.open", "io.open",
    "concurrent.futures.wait", "concurrent.futures.as_completed",
})

#: ``<head module> x <basename>`` suffix classifications
_BLOCKING_SUFFIXES: tuple[tuple[frozenset[str], frozenset[str]], ...] = (
    (frozenset({"threading", "multiprocessing"}),
     frozenset({"acquire", "join", "wait"})),
    (frozenset({"concurrent"}), frozenset({"result"})),
    (frozenset({"queue"}), frozenset({"get", "put", "join"})),
    (frozenset({"pathlib"}),
     frozenset({"read_text", "write_text", "read_bytes", "write_bytes"})),
)


def _is_blocking_external(external: str) -> bool:
    if external in _BLOCKING_EXACT:
        return True
    if external.startswith("subprocess."):
        return True
    head = external.split(".", 1)[0]
    base = external.rsplit(".", 1)[-1]
    for heads, bases in _BLOCKING_SUFFIXES:
        if head in heads and base in bases:
            return True
    return False


class AsyncBlockingRule(ConcurrencyRule):
    """RC003: nothing reachable from an async def may block the loop."""

    rule_id = "RC003"
    summary = (
        "no blocking call (time.sleep, Lock.acquire, Future.result, "
        "file/socket I/O) may be reachable from an async def without an "
        "executor hand-off"
    )
    rationale = (
        "One blocked event loop stalls every tenant of the async front "
        "end at once — the whole point of ServiceFrontEnd is that "
        "admission answers while shards work.  Blocking work belongs "
        "behind run_in_executor / wrap_future (which is how _run_entry "
        "awaits its shard)."
    )

    def check(self, graph: CallGraph, model: LockModel) -> list[Finding]:
        findings: list[Finding] = []
        reported: set[tuple[str, int, int]] = set()
        roots = sorted(
            q for q, f in graph.functions.items()
            if isinstance(f.node, ast.AsyncFunctionDef)
        )
        for root in roots:
            parents: dict[str, CallSite | None] = {root: None}
            queue = [root]
            while queue:
                qname = queue.pop(0)
                info = graph.functions[qname]
                scan = model.scans[qname]
                for site in graph.sites_of(qname):
                    _held, nested = model.held_at_site(site)
                    if nested:
                        # a nested def is deferred work — it runs on the
                        # shard pool's runner thread, not on the event loop
                        continue
                    if site.kind == "internal":
                        callee = site.callee
                        if callee in graph.functions \
                                and callee not in parents:
                            parents[callee] = site
                            queue.append(callee)
                        continue
                    if (site.line, site.col) in scan.awaited:
                        continue             # awaited => async-native API
                    reason = self._blocking_reason(site, info, model)
                    if reason is None:
                        continue
                    key = (site.path, site.line, site.col)
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append(self.report(
                        site.path, site.line, site.col,
                        f"blocking call `{site.text}(...)` ({reason}) is "
                        f"reachable from async {root} — hand it off via "
                        f"run_in_executor or use the async API",
                        chain=self._chain(parents, qname),
                    ))
        return findings

    @staticmethod
    def _blocking_reason(site: CallSite, info: FunctionInfo,
                         model: LockModel) -> str | None:
        if site.kind == "external" and site.external is not None:
            if _is_blocking_external(site.external):
                return site.external
            return None
        # unresolved fallback: bare lock-method calls on an inferred lock
        parts = site.text.split(".")
        if len(parts) < 2 or parts[-1] not in {"acquire", "wait", "join"}:
            return None
        if parts[0] == info.self_name and len(parts) == 3 \
                and info.class_qname is not None:
            lock_id = model.lock_for_attr(info.class_qname, parts[1])
            if lock_id is not None:
                return f"acquires inferred lock {lock_id}"
        if len(parts) == 2:
            lock_id = model.module_locks.get(info.module, {}).get(parts[0])
            if lock_id is not None:
                return f"acquires inferred lock {lock_id}"
        return None

    @staticmethod
    def _chain(parents: dict[str, CallSite | None],
               target: str) -> tuple[str, ...]:
        hops: list[str] = []
        cursor = target
        while True:
            site = parents.get(cursor)
            if site is None:
                break
            hops.append(f"{site.path}:{site.line} {site.caller} -> {cursor}")
            cursor = site.caller
        return tuple(reversed(hops))


# --------------------------------------------------------------------------
# RC005 — lock-acquisition-order cycles
# --------------------------------------------------------------------------

class LockOrderRule(ConcurrencyRule):
    """RC005: the inferred lock set must have a consistent global order."""

    rule_id = "RC005"
    summary = (
        "lock acquisition order must be globally consistent — no "
        "cycles in the holds-while-acquiring graph, no re-acquisition "
        "of a held non-reentrant lock"
    )
    rationale = (
        "Two threads taking the same two locks in opposite orders is "
        "the classic service-killing deadlock; the static order graph "
        "(checked here) and the runtime one (dynsan) must both stay "
        "acyclic."
    )

    def check(self, graph: CallGraph, model: LockModel) -> list[Finding]:
        findings: list[Finding] = []
        #: (held, acquired) -> first observation (path, line, col, text)
        edges: dict[tuple[str, str], tuple[str, int, int, str]] = {}

        def note_edge(held_id: str, acq_id: str, path: str, line: int,
                      col: int, text: str) -> None:
            edges.setdefault((held_id, acq_id), (path, line, col, text))

        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            scan = model.scans[qname]
            for acq in scan.acquires:
                effective = model.effective_held(
                    qname, acq.held_before, acq.nested
                )
                for held_id in sorted(effective):
                    if held_id == acq.lock_id:
                        if model.lock_kinds.get(held_id) == "rlock":
                            continue
                        findings.append(self.report(
                            info.path, acq.line, acq.col,
                            f"{qname} re-acquires non-reentrant lock "
                            f"{held_id} it already holds — guaranteed "
                            f"deadlock",
                        ))
                    else:
                        note_edge(held_id, acq.lock_id, info.path,
                                  acq.line, acq.col, qname)
            for site in graph.sites_of(qname):
                if site.kind != "internal" \
                        or site.callee not in graph.functions:
                    continue
                held, nested = model.held_at_site(site)
                effective = model.effective_held(qname, held, nested)
                if not effective:
                    continue
                for acq_id in sorted(model.closure_acquires(site.callee)):
                    for held_id in sorted(effective):
                        if held_id == acq_id:
                            if model.lock_kinds.get(held_id) == "rlock":
                                continue
                            findings.append(self.report(
                                site.path, site.line, site.col,
                                f"{qname} holds {held_id} while calling "
                                f"{site.callee}, which re-acquires it "
                                f"(transitively) — deadlock",
                            ))
                        else:
                            note_edge(
                                held_id, acq_id, site.path, site.line,
                                site.col, f"{qname} -> {site.callee}",
                            )
        findings.extend(self._cycle_findings(edges))
        return findings

    def _cycle_findings(
        self, edges: dict[tuple[str, str], tuple[str, int, int, str]],
    ) -> list[Finding]:
        adjacency: dict[str, set[str]] = {}
        for held_id, acq_id in edges:
            adjacency.setdefault(held_id, set()).add(acq_id)
            adjacency.setdefault(acq_id, set())
        sccs = _tarjan_sccs(adjacency)
        findings: list[Finding] = []
        for scc in sccs:
            if len(scc) < 2:
                continue
            members = set(scc)
            scc_edges = sorted(
                (a, b) for (a, b) in edges
                if a in members and b in members
            )
            anchor = min(
                edges[edge][:3] for edge in scc_edges
            )
            rendered = "; ".join(
                f"{a} -> {b} (at {edges[(a, b)][0]}:{edges[(a, b)][1]}, "
                f"{edges[(a, b)][3]})"
                for a, b in scc_edges
            )
            findings.append(self.report(
                anchor[0], anchor[1], anchor[2],
                f"lock-order cycle among {{{_fmt_locks(members)}}}: "
                f"{rendered} — pick one global order",
            ))
        return findings


def _tarjan_sccs(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan strongly-connected components, stable order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    for start in sorted(adjacency):
        if start in index:
            continue
        work: list[tuple[str, Iterable[str]]] = [
            (start, iter(sorted(adjacency[start])))
        ]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

ALL_CONCURRENCY_RULES: tuple[type[ConcurrencyRule], ...] = (
    LockGuardRule,
    LockedSuffixRule,
    AsyncBlockingRule,
    LockOrderRule,
)


def get_concurrency_rules(
    ids: Iterable[str] | None = None,
) -> list[type[ConcurrencyRule]]:
    if ids is None:
        return list(ALL_CONCURRENCY_RULES)
    wanted = {i.upper() for i in ids}
    known = {r.rule_id for r in ALL_CONCURRENCY_RULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown concurrency rule id(s): {', '.join(sorted(unknown))}"
        )
    return [r for r in ALL_CONCURRENCY_RULES if r.rule_id in wanted]


def concurrency_rule_catalogue() -> list[dict[str, str]]:
    return [
        {
            "rule": rule.rule_id,
            "severity": rule.severity.value,
            "summary": rule.summary,
            "rationale": rule.rationale,
        }
        for rule in ALL_CONCURRENCY_RULES
    ]


@dataclass
class ConcurrencyReport:
    """Outcome of one concurrency pass: findings + lock-model stats."""

    result: LintResult
    stats: dict[str, object] = field(default_factory=dict)


def run_concurrency_rules(
    graph: CallGraph,
    rules: Sequence[type[ConcurrencyRule]] = ALL_CONCURRENCY_RULES,
    model: LockModel | None = None,
) -> list[Finding]:
    if model is None:
        model = build_lock_model(graph)
    findings: list[Finding] = []
    for rule_cls in rules:
        findings.extend(rule_cls().check(graph, model))
    return findings


def lint_concurrency(
    paths: Iterable[str],
    rules: Sequence[type[ConcurrencyRule]] = ALL_CONCURRENCY_RULES,
    graph: CallGraph | None = None,
) -> ConcurrencyReport:
    """Build the call graph over ``paths`` and run the RC rules.

    Suppressions apply at the line each finding lands on, with the same
    ``# staticcheck: ignore[RCxxx]`` markers as every other pass.
    """
    if graph is None:
        graph = build_call_graph(paths)
    model = build_lock_model(graph)
    result = LintResult(n_files=len(graph.modules))
    suppression_cache: dict[str, object] = {}
    for finding in run_concurrency_rules(graph, rules, model=model):
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
    stats = dict(graph.resolution_stats())
    stats["concurrency"] = model.stats()
    return ConcurrencyReport(result=result, stats=stats)
