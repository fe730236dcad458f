"""The invariant rule catalogue (RS001 — RS006).

Each rule is a small :class:`ast.NodeVisitor` protecting one invariant
the repo's determinism / reproducibility story depends on.  Rules carry
an ID, a severity, a one-line summary, and an optional path *scope*: a
tuple of directory or file names the invariant is contracted for.  A
scoped rule still applies in full to files outside the ``repro`` package
tree (fixtures, scratch scripts), so known-bad snippets always trip it.

The catalogue:

========  ==============================================================
RS001     unseeded randomness (stdlib ``random``, legacy ``np.random.*``
          globals, ``default_rng()`` without a seed)
RS002     wall-clock reads (``time.time``, ``datetime.now``...) in the
          simulation/tuning/engine hot paths
RS003     mutable default arguments
RS004     float ``==`` / ``!=`` in bit-identity-contracted modules
RS005     attribute writes to slotted classes outside ``__slots__``
RS006     cache-key completeness/purity for classes with ``cache_key()``
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Any, ClassVar

from .model import Finding, Severity

__all__ = ["Rule", "ALL_RULES", "get_rules", "rule_catalogue"]


class Rule(ast.NodeVisitor):
    """One invariant check over a single module's AST."""

    rule_id: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str]
    rationale: ClassVar[str]
    #: directory / file names this invariant is contracted for; ``None``
    #: applies everywhere.  See :func:`repro.staticcheck.runner.rule_applies`.
    scope: ClassVar[tuple[str, ...] | None] = None

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []

    def check(self, tree: ast.AST) -> list[Finding]:
        self.visit(tree)
        return self.findings

    def report(self, node: ast.AST, message: str,
               severity: Severity | None = None) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule_id=self.rule_id,
                message=message,
                severity=severity or self.severity,
            )
        )


def _dotted_chain(node: ast.expr) -> list[str] | None:
    """``np.random.rand`` -> ["np", "random", "rand"]; None if not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _ImportTracking(Rule):
    """Shared import-alias bookkeeping for module-reference rules."""

    #: module path -> set of local aliases, e.g. "numpy" -> {"np"}
    def __init__(self, path: str):
        super().__init__(path)
        self.module_aliases: dict[str, set[str]] = {}
        #: local name -> (module, original name) for ``from m import n as l``
        self.from_imports: dict[str, tuple[str, str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # ``import numpy.random`` binds "numpy"; with an asname the
            # alias refers to the full dotted module.
            module = alias.name if alias.asname else alias.name.split(".")[0]
            self.module_aliases.setdefault(module, set()).add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            self.from_imports[local] = (module, alias.name)
            # ``from numpy import random as npr`` aliases a submodule.
            self.module_aliases.setdefault(
                f"{module}.{alias.name}" if module else alias.name, set()
            ).add(local)
        self.generic_visit(node)

    def _aliases(self, module: str) -> set[str]:
        return self.module_aliases.get(module, set())


def _is_unseeded_rng_call(node: ast.Call) -> bool:
    """``default_rng()`` / ``default_rng(None)`` — no reproducible seed."""
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in node.keywords:
        if kw.arg == "seed":
            value = kw.value
            return isinstance(value, ast.Constant) and value.value is None
    return True


class UnseededRandomness(_ImportTracking):
    """RS001: all randomness must flow through an explicitly seeded generator."""

    rule_id = "RS001"
    summary = "unseeded or process-global randomness"
    rationale = (
        "Results must be a pure function of (request, seed).  The stdlib "
        "``random`` module and the legacy ``np.random.*`` globals share "
        "hidden process state, and ``default_rng()`` without a seed draws "
        "OS entropy — all three make runs irreproducible and break the "
        "engine's cache/retry bit-identity contracts."
    )

    _LEGACY_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                            "PCG64", "Philox", "SFC64", "MT19937",
                            "BitGenerator", "RandomState"})

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted_chain(node.func)
        if chain is not None:
            self._check_chain(node, chain)
        self.generic_visit(node)

    def _check_chain(self, node: ast.Call, chain: list[str]) -> None:
        head, rest = chain[0], chain[1:]
        # random.random(), random.seed(), rnd.choice(), ...
        if head in self._aliases("random") and len(rest) == 1:
            self.report(
                node,
                f"call to stdlib random.{rest[0]}: process-global RNG; "
                f"thread a seeded np.random.Generator instead",
            )
            return
        # np.random.<fn>() and numpy.random-submodule aliases
        fn: str | None = None
        if head in self._aliases("numpy") and len(rest) == 2 and rest[0] == "random":
            fn = rest[1]
        elif head in self._aliases("numpy.random") and len(rest) == 1:
            fn = rest[0]
        if fn is not None:
            if fn == "default_rng":
                if _is_unseeded_rng_call(node):
                    self.report(
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "pass an explicit seed or Generator",
                    )
            elif fn == "RandomState" or fn not in self._LEGACY_OK:
                self.report(
                    node,
                    f"legacy global numpy RNG np.random.{fn}: shares hidden "
                    f"process state; use a seeded np.random.Generator",
                )
            return
        # from numpy.random import default_rng; default_rng()
        if len(chain) == 1:
            origin = self.from_imports.get(head)
            if origin is None:
                return
            module, original = origin
            if original == "default_rng" and module.startswith("numpy"):
                if _is_unseeded_rng_call(node):
                    self.report(
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "pass an explicit seed or Generator",
                    )
            elif module == "random":
                self.report(
                    node,
                    f"call to stdlib random.{original}: process-global RNG; "
                    f"thread a seeded np.random.Generator instead",
                )


class WallClockRead(_ImportTracking):
    """RS002: hot paths must not read the wall clock."""

    rule_id = "RS002"
    summary = "wall-clock read in a deterministic hot path"
    scope = ("sparksim", "tuning", "engine")
    rationale = (
        "Simulated time is the *output* of the cost model; reading host "
        "wall-clock time inside sparksim/tuning/engine couples results to "
        "the machine and the moment.  Monotonic telemetry "
        "(time.perf_counter / time.monotonic) is explicitly allowed — it "
        "feeds counters, never results."
    )

    _BAD_TIME = frozenset({"time", "time_ns", "localtime", "ctime",
                           "gmtime", "asctime", "strftime"})
    _BAD_DATETIME = frozenset({"now", "utcnow", "today"})
    _DATETIME_CLASSES = frozenset({"datetime", "date"})

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted_chain(node.func)
        if chain is not None:
            self._check_chain(node, chain)
        self.generic_visit(node)

    def _check_chain(self, node: ast.Call, chain: list[str]) -> None:
        head, rest = chain[0], chain[1:]
        if head in self._aliases("time") and len(rest) == 1 and rest[0] in self._BAD_TIME:
            self.report(node, f"wall-clock read time.{rest[0]}() in a hot path; "
                              f"derive time from the simulation, or use "
                              f"perf_counter for telemetry")
            return
        if len(chain) == 1:
            origin = self.from_imports.get(head)
            if origin is not None and origin[0] == "time" and origin[1] in self._BAD_TIME:
                self.report(node, f"wall-clock read time.{origin[1]}() in a hot path; "
                                  f"derive time from the simulation, or use "
                                  f"perf_counter for telemetry")
            return
        # datetime.now() / datetime.datetime.now() / date.today() ...
        if rest and rest[-1] in self._BAD_DATETIME:
            base = chain[:-1]
            is_datetime_class = (
                # from datetime import datetime; datetime.now()
                (len(base) == 1 and self.from_imports.get(base[0], ("", ""))[0] == "datetime"
                 and self.from_imports.get(base[0], ("", ""))[1] in self._DATETIME_CLASSES)
                # import datetime; datetime.datetime.now()
                or (len(base) == 2 and base[0] in self._aliases("datetime")
                    and base[1] in self._DATETIME_CLASSES)
            )
            if is_datetime_class:
                self.report(
                    node,
                    f"wall-clock read {'.'.join(chain)}() in a hot path; "
                    f"results must not depend on the host clock",
                )


class MutableDefaultArgument(Rule):
    """RS003: default argument values must be immutable."""

    rule_id = "RS003"
    summary = "mutable default argument"
    rationale = (
        "A mutable default is evaluated once and shared across calls — "
        "state leaks between evaluations, which already bit us once "
        "(Calibration() defaults, fixed in PR 1).  Use None plus an "
        "in-body default."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                                "OrderedDict", "defaultdict", "Counter",
                                "deque"})

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + list(args.kw_defaults):
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                self.report(default, "mutable default argument (shared across "
                                     "calls); use None and default inside the body")
            elif isinstance(default, ast.Call):
                chain = _dotted_chain(default.func)
                if chain and chain[-1] in self._MUTABLE_CALLS:
                    self.report(default,
                                f"mutable default argument {chain[-1]}() "
                                f"(shared across calls); use None and default "
                                f"inside the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


class FloatEquality(Rule):
    """RS004: no ``==`` / ``!=`` against float literals in bit-identity modules."""

    rule_id = "RS004"
    summary = "float equality comparison in a bit-identity module"
    scope = ("simulator.py", "costmodel.py", "scheduler.py")
    rationale = (
        "simulator.py / costmodel.py / scheduler.py carry a bit-identity "
        "contract (run_batch == scalar run loop, vector scheduler == heap "
        "scheduler).  Equality against float literals is where refactors "
        "silently diverge: an expression reassociated by a 'harmless' "
        "cleanup stops comparing equal.  Compare integers, or use an "
        "explicit tolerance; suppress only for exact-value sentinels."
    )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                left, right = operands[i], operands[i + 1]
                for side in (left, right):
                    if isinstance(side, ast.Constant) and type(side.value) is float:
                        self.report(
                            node,
                            f"float {'==' if isinstance(op, ast.Eq) else '!='} "
                            f"{side.value!r} in a bit-identity-contracted module; "
                            f"compare integers or use an explicit tolerance",
                        )
                        break
        self.generic_visit(node)


def _literal_strs(node: ast.expr) -> list[str] | None:
    """String elements of a tuple/list/str literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            out.append(element.value)
        return out
    return None


class SlottedClassAttrWrite(Rule):
    """RS005: slotted classes only write attributes declared in ``__slots__``."""

    rule_id = "RS005"
    summary = "attribute write outside __slots__ on a slotted class"
    rationale = (
        "Hot-path classes (Configuration) declare __slots__ so per-instance "
        "memos stay cheap; a write to an undeclared attribute raises "
        "AttributeError at runtime, but only on the code path that writes — "
        "exactly the bug a refactor ships.  Declare the slot or drop the "
        "write."
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        slots = self._declared_slots(node)
        if slots is not None:
            allowed = slots | self._property_setter_names(node)
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._check_method(method, allowed)
        self.generic_visit(node)

    @staticmethod
    def _declared_slots(node: ast.ClassDef) -> set[str] | None:
        for stmt in node.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (value is not None and isinstance(target, ast.Name)
                        and target.id == "__slots__"):
                    names = _literal_strs(value)
                    # Dynamically-built __slots__ can't be checked statically.
                    return set(names) if names is not None else None
        return None

    @staticmethod
    def _property_setter_names(node: ast.ClassDef) -> set[str]:
        names = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in stmt.decorator_list:
                    if (isinstance(decorator, ast.Attribute)
                            and decorator.attr == "setter"):
                        names.add(stmt.name)
        return names

    def _check_method(self, method, allowed: set[str]) -> None:
        if not method.args.args:
            return
        first_arg = method.args.args[0].arg
        if first_arg == "cls":
            return
        for sub in ast.walk(method):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == first_arg
                    and sub.attr not in allowed):
                self.report(
                    sub,
                    f"write to {first_arg}.{sub.attr} not declared in "
                    f"__slots__ {tuple(sorted(allowed))}; declare the slot "
                    f"or drop the write",
                )


class CacheKeyPurity(Rule):
    """RS006: ``cache_key()`` covers every field except declared exclusions."""

    rule_id = "RS006"
    summary = "cache key out of sync with declared fields/exclusions"
    rationale = (
        "Engine memoization and retry bit-identity hinge on cache_key() "
        "covering the *full* evaluation identity and nothing volatile: a "
        "field silently missing conflates distinct runs; reading a field "
        "outside the identity (a retry counter, say) makes retried "
        "results diverge from first-try results.  Exclusions are "
        "declared in ``_cache_key_excluded`` so they are auditable."
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cache_key = next(
            (stmt for stmt in node.body
             if isinstance(stmt, ast.FunctionDef) and stmt.name == "cache_key"),
            None,
        )
        if cache_key is not None:
            self._check_class(node, cache_key)
        self.generic_visit(node)

    def _check_class(self, node: ast.ClassDef, cache_key: ast.FunctionDef) -> None:
        fields: dict[str, ast.AnnAssign] = {}
        excluded: list[str] = []
        excluded_stmt: ast.stmt | None = None
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                annotation = ast.unparse(stmt.annotation)
                if name == "_cache_key_excluded":
                    names = _literal_strs(stmt.value) if stmt.value else None
                    excluded, excluded_stmt = list(names or ()), stmt
                elif "ClassVar" not in annotation and not name.startswith("_"):
                    fields[name] = stmt
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "_cache_key_excluded"):
                        names = _literal_strs(stmt.value)
                        excluded, excluded_stmt = list(names or ()), stmt

        if not fields:
            return
        if not cache_key.args.args:
            return
        self_name = cache_key.args.args[0].arg
        reads = {
            sub.attr
            for sub in ast.walk(cache_key)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == self_name
        }
        for name in excluded:
            if name in reads:
                self.report(
                    cache_key,
                    f"cache_key() reads {name!r}, which _cache_key_excluded "
                    f"declares outside the evaluation identity",
                )
            if name not in fields and excluded_stmt is not None:
                self.report(
                    excluded_stmt,
                    f"_cache_key_excluded names unknown field {name!r}",
                )
        for name, stmt in fields.items():
            if name not in reads and name not in excluded:
                self.report(
                    stmt,
                    f"field {name!r} is neither read in cache_key() nor "
                    f"declared in _cache_key_excluded; two distinct requests "
                    f"would share one cache entry",
                )


ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomness,
    WallClockRead,
    MutableDefaultArgument,
    FloatEquality,
    SlottedClassAttrWrite,
    CacheKeyPurity,
)


def get_rules(ids=None) -> tuple[type[Rule], ...]:
    """The rule classes to run, optionally filtered by ID."""
    if ids is None:
        return ALL_RULES
    wanted = {rule_id.upper() for rule_id in ids}
    unknown = wanted - {rule.rule_id for rule in ALL_RULES}
    if unknown:
        raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
    return tuple(rule for rule in ALL_RULES if rule.rule_id in wanted)


def rule_catalogue() -> list[dict[str, Any]]:
    """Catalogue rows for ``--list-rules`` and the docs."""
    return [
        {
            "id": rule.rule_id,
            "severity": rule.severity.value,
            "summary": rule.summary,
            "scope": list(rule.scope) if rule.scope else None,
            "rationale": " ".join(rule.rationale.split()),
        }
        for rule in ALL_RULES
    ]
