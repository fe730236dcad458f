"""Project-wide call-graph builder for the interprocedural (``RF``) rules.

The per-file rules (RS001—RS006) stop at function boundaries, so an
unseeded RNG or a global-state write hidden one call deep sails past
them.  This module builds the structure the flow rules walk instead:

* a **module index** — every analyzed file parsed once, its imports
  resolved to absolute dotted targets (relative imports included), its
  top-level functions and classes recorded;
* a **function table** keyed by qualified name
  (``repro.engine.engine.EvaluationEngine.evaluate_batch``), where a
  nested ``def`` belongs to its enclosing function's analysis unit;
* **call edges**: every ``ast.Call`` in every function, resolved where
  the code gives us enough to resolve it — bare names through imports
  and module scope, ``self.method()`` through an intra-package MRO walk
  (``__slots__`` classes included; slots never affect method lookup),
  ``self.attr.method()`` through attribute types inferred from
  ``__init__`` assignments and annotations, locals assigned from
  constructors, parameter annotations, and ``super().method()``.

Soundness caveat (documented, deliberate): calls we cannot resolve land
in an explicit **unresolved bucket** instead of being guessed at.  A
flow rule therefore never *follows* an unresolved edge — the analysis
can miss violations hidden behind dynamic dispatch, and
:meth:`CallGraph.resolution_stats` exists precisely so that blind spot
is measured, not assumed away.  Calls into the stdlib/numpy/builtins are
classified ``external`` and keep their absolute dotted name, which is
what the flow rules match RNG constructions and wall-clock reads on.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "build_call_graph",
    "module_name_for",
]

#: method names assumed to belong to builtin containers / stdlib objects
#: when the receiver's type is unknown — classified external rather than
#: unresolved, because treating ``results.append`` as a blind spot would
#: drown the unresolved bucket in list plumbing.
_BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "copy", "count", "index",
    "keys", "values", "items", "get", "setdefault", "update", "popitem",
    "move_to_end",
    "add", "discard", "union", "intersection", "difference",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
    "startswith", "endswith", "replace", "upper", "lower", "encode",
    "decode", "title", "ljust", "rjust", "zfill", "splitlines",
    "hexdigest", "digest",
    "tolist", "sum", "any", "all", "min", "max", "mean", "astype",
    "partition", "flatten", "ravel", "reshape", "fill", "nonzero", "item",
})

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call`` inside one function."""

    caller: str                  #: qualified name of the calling function
    path: str
    line: int
    col: int
    text: str                    #: best-effort dotted rendering of the callee
    kind: str                    #: "internal" | "external" | "unresolved"
    callee: str | None = None    #: qualified name when kind == "internal"
    external: str | None = None  #: absolute dotted name when kind == "external"


@dataclass
class FunctionInfo:
    """One analyzed function or method (nested defs belong to it)."""

    qname: str
    name: str
    module: str
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qname: str | None = None

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def self_name(self) -> str | None:
        if self.class_qname is None or not self.node.args.args:
            return None
        decorators = {
            d.id for d in self.node.decorator_list if isinstance(d, ast.Name)
        }
        if "staticmethod" in decorators:
            return None
        return self.node.args.args[0].arg


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, inferred attribute types."""

    qname: str
    name: str
    module: str
    lineno: int
    #: base-class qnames resolved inside the analyzed set (others dropped)
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)   # name -> func qname
    #: instance attribute -> class qname, from __init__ assignments and
    #: annotated class-level declarations
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed set."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: local alias -> absolute dotted target ("np" -> "numpy",
    #: "SparkSimulator" -> "repro.sparksim.simulator.SparkSimulator")
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # name -> qname
    classes: dict[str, str] = field(default_factory=dict)    # name -> qname


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, anchored at its topmost package.

    Walks parents upward while an ``__init__.py`` sibling exists, so
    ``src/repro/engine/engine.py`` maps to ``repro.engine.engine`` and a
    test fixture package maps to ``<pkg>.<module>`` regardless of where
    the repository is checked out.
    """
    path = path.resolve()
    parts: list[str] = []
    if path.name != "__init__.py":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts.append(path.stem)
    return ".".join(reversed(parts))


def _dotted(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Candidate class names mentioned in an annotation expression.

    Handles ``SparkSimulator``, ``SparkSimulator | None``,
    ``Optional[SparkSimulator]``, and string annotations.
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            chain = _dotted(sub)
            if chain:
                names.append(".".join(chain))
    return names


def _value_class_candidates(value: ast.expr) -> list[list[str]]:
    """Constructor chains a value expression might take its type from.

    ``SparkSimulator(...)`` yields ``[["SparkSimulator"]]``;
    ``simulator or SparkSimulator()`` and
    ``EvaluationCache(...) if size else None`` unwrap to their call arms.
    """
    if isinstance(value, ast.Call):
        chain = _dotted(value.func)
        return [chain] if chain else []
    if isinstance(value, ast.BoolOp):
        out = []
        for arm in value.values:
            out.extend(_value_class_candidates(arm))
        return out
    if isinstance(value, ast.IfExp):
        return (_value_class_candidates(value.body)
                + _value_class_candidates(value.orelse))
    return []


class CallGraph:
    """The resolved call structure of one analyzed file set."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.sites: dict[str, list[CallSite]] = {}

    # --- lookups ----------------------------------------------------------
    def module_of_path(self, path: str) -> ModuleInfo | None:
        for mod in self.modules.values():
            if mod.path == path:
                return mod
        return None

    def function(self, qname: str) -> FunctionInfo | None:
        return self.functions.get(qname)

    def sites_of(self, qname: str) -> list[CallSite]:
        return self.sites.get(qname, [])

    def all_sites(self) -> Iterable[CallSite]:
        for sites in self.sites.values():
            yield from sites

    def mro(self, class_qname: str) -> list[str]:
        """Linearized intra-package base chain (C3 not needed at this scale)."""
        out: list[str] = []
        stack = [class_qname]
        seen: set[str] = set()
        while stack:
            cls = stack.pop(0)
            if cls in seen or cls not in self.classes:
                continue
            seen.add(cls)
            out.append(cls)
            stack.extend(self.classes[cls].bases)
        return out

    def resolve_method(self, class_qname: str, method: str) -> str | None:
        for cls in self.mro(class_qname):
            hit = self.classes[cls].methods.get(method)
            if hit is not None:
                return hit
        return None

    def resolve_attr_type(self, class_qname: str, attr: str) -> str | None:
        for cls in self.mro(class_qname):
            hit = self.classes[cls].attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def constructor_of(self, class_qname: str) -> str | None:
        """``Class(...)`` dispatches to ``__init__`` when one is analyzed."""
        return self.resolve_method(class_qname, "__init__")

    # --- traversal --------------------------------------------------------
    def closure(self, roots: Iterable[str]) -> set[str]:
        """Roots plus every internal function transitively reachable."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            for site in self.sites_of(qname):
                # a dataclass-style class with no explicit __init__ resolves
                # to the class qname itself — a dead end, not a function
                if site.callee in self.functions and site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def reach_parents(self, roots: Iterable[str]) -> dict[str, CallSite | None]:
        """BFS parents: reachable qname -> the site that first reached it.

        Roots map to ``None``; use :meth:`chain_to` to render the path.
        """
        parents: dict[str, CallSite | None] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            qname = queue.pop(0)
            for site in self.sites_of(qname):
                callee = site.callee
                if callee in self.functions and callee not in parents:
                    parents[callee] = site
                    queue.append(callee)
        return parents

    def chain_to(self, parents: dict[str, CallSite | None],
                 target: str) -> tuple[str, ...]:
        """Render the entry-point-to-``target`` path as report hops."""
        hops: list[str] = []
        cursor = target
        while True:
            site = parents.get(cursor)
            if site is None:
                break
            hops.append(
                f"{site.path}:{site.line} {site.caller} -> {cursor}"
            )
            cursor = site.caller
        return tuple(reversed(hops))

    # --- stats ------------------------------------------------------------
    def resolution_stats(self) -> dict[str, object]:
        """How much of the call surface the resolver actually pinned down."""
        internal = external = unresolved = 0
        for site in self.all_sites():
            if site.kind == "internal":
                internal += 1
            elif site.kind == "external":
                external += 1
            else:
                unresolved += 1
        attempted = internal + unresolved
        return {
            "files": len(self.modules),
            "functions": len(self.functions),
            "call_sites": internal + external + unresolved,
            "resolved": internal,
            "external": external,
            "unresolved": unresolved,
            # Share of non-external calls we resolved: externals have a
            # known target by definition; unresolved ones are the honest
            # blind spot the module docstring describes.
            "resolution_rate": (internal / attempted) if attempted else 1.0,
        }

    def unresolved_sites(self) -> list[CallSite]:
        return [s for s in self.all_sites() if s.kind == "unresolved"]


# --------------------------------------------------------------------------
# builder
# --------------------------------------------------------------------------

def build_call_graph(paths: Iterable[str | Path]) -> CallGraph:
    """Parse ``paths`` (files or directories) and build their call graph."""
    from .runner import iter_python_files

    graph = CallGraph()
    files = iter_python_files(paths)

    # Pass 1: parse + index every module.
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue                 # the per-file pass reports RS000
        name = module_name_for(path)
        mod = ModuleInfo(name=name, path=str(path), tree=tree, source=source)
        _index_module(mod)
        graph.modules[name] = mod

    # Pass 2: functions, classes, attribute types.
    for mod in graph.modules.values():
        _index_definitions(graph, mod)

    # Pass 3: resolve class bases now every class is known.
    for mod in graph.modules.values():
        _resolve_bases(graph, mod)

    # Pass 4: attribute types (needs resolved class names).
    for mod in graph.modules.values():
        _infer_attr_types(graph, mod)

    # Pass 5: call sites.
    for mod in graph.modules.values():
        for fn_qname in list(graph.functions):
            info = graph.functions[fn_qname]
            if info.module != mod.name:
                continue
            _collect_sites(graph, mod, info)
    return graph


def _index_module(mod: ModuleInfo) -> None:
    package = mod.name if _is_package_init(mod) else mod.name.rsplit(".", 1)[0]
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = _relative_base(package, stmt.level, stmt.module)
            for alias in stmt.names:
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _is_package_init(mod: ModuleInfo) -> bool:
    return mod.path.endswith("__init__.py")


def _relative_base(package: str, level: int, module: str | None) -> str:
    if level == 0:
        return module or ""
    parts = package.split(".")
    # level 1 = current package, each extra level strips one component.
    keep = len(parts) - (level - 1)
    base_parts = parts[:keep] if keep > 0 else []
    if module:
        base_parts.append(module)
    return ".".join(base_parts)


def _index_definitions(graph: CallGraph, mod: ModuleInfo) -> None:
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{mod.name}.{stmt.name}"
            mod.functions[stmt.name] = qname
            graph.functions[qname] = FunctionInfo(
                qname=qname, name=stmt.name, module=mod.name,
                path=mod.path, lineno=stmt.lineno, node=stmt,
            )
        elif isinstance(stmt, ast.ClassDef):
            cls_qname = f"{mod.name}.{stmt.name}"
            mod.classes[stmt.name] = cls_qname
            info = ClassInfo(qname=cls_qname, name=stmt.name,
                             module=mod.name, lineno=stmt.lineno)
            graph.classes[cls_qname] = info
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn_qname = f"{cls_qname}.{sub.name}"
                    info.methods[sub.name] = fn_qname
                    graph.functions[fn_qname] = FunctionInfo(
                        qname=fn_qname, name=sub.name, module=mod.name,
                        path=mod.path, lineno=sub.lineno, node=sub,
                        class_qname=cls_qname,
                    )


def _resolve_symbol(graph: CallGraph, mod: ModuleInfo, name: str) -> str | None:
    """Absolute dotted target of a bare name in module scope, if known."""
    if name in mod.imports:
        return mod.imports[name]
    if name in mod.functions:
        return mod.functions[name]
    if name in mod.classes:
        return mod.classes[name]
    return None


def _resolve_class_name(graph: CallGraph, mod: ModuleInfo,
                        name: str) -> str | None:
    """Resolve ``name`` to an analyzed class qname, following imports."""
    target = _resolve_symbol(graph, mod, name)
    if target is None:
        return None
    if target in graph.classes:
        return target
    # ``from .space import Configuration`` targets the symbol directly;
    # ``import repro.config.space`` would need attribute access instead.
    return target if target in graph.classes else None


def _resolve_bases(graph: CallGraph, mod: ModuleInfo) -> None:
    for stmt in mod.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        info = graph.classes[f"{mod.name}.{stmt.name}"]
        for base in stmt.bases:
            chain = _dotted(base)
            if not chain:
                continue
            resolved = None
            if len(chain) == 1:
                resolved = _resolve_class_name(graph, mod, chain[0])
            else:
                root = mod.imports.get(chain[0])
                if root is not None:
                    candidate = ".".join([root, *chain[1:]])
                    if candidate in graph.classes:
                        resolved = candidate
            if resolved is not None:
                info.bases.append(resolved)


def _infer_attr_types(graph: CallGraph, mod: ModuleInfo) -> None:
    for stmt in mod.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        info = graph.classes[f"{mod.name}.{stmt.name}"]
        for sub in stmt.body:
            # Annotated class-level fields (dataclass style): x: ClassName
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                resolved = _annotation_type(graph, mod, sub.annotation)
                if resolved is not None:
                    info.attr_types.setdefault(sub.target.id, resolved)
        for sub in stmt.body:
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not sub.args.args:
                continue
            self_name = sub.args.args[0].arg
            param_types: dict[str, str] = {}
            for arg in (list(sub.args.posonlyargs) + list(sub.args.args)
                        + list(sub.args.kwonlyargs)):
                typed = _annotation_type(graph, mod, arg.annotation)
                if typed is not None:
                    param_types[arg.arg] = typed
            for node in ast.walk(sub):
                value: ast.expr | None = None
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == self_name):
                        continue
                    resolved = _first_constructed_class(graph, mod, value)
                    if resolved is None and isinstance(value, ast.Name):
                        # ``self.space = space`` takes the param's annotation
                        resolved = param_types.get(value.id)
                    if resolved is not None:
                        # First write wins; conflicting reassignment to a
                        # different class drops the inference (unresolved
                        # beats wrong).
                        prior = info.attr_types.get(target.attr)
                        if prior is None:
                            info.attr_types[target.attr] = resolved
                        elif prior != resolved:
                            info.attr_types[target.attr] = "?conflict"
        info.attr_types = {
            k: v for k, v in info.attr_types.items() if v != "?conflict"
        }


#: typing-module scaffolding that shows up in annotations but never names
#: a receiver type worth dispatching through
_TYPING_NAMES = frozenset({
    "Optional", "Union", "Any", "Sequence", "Iterable", "Iterator", "List",
    "Dict", "Tuple", "Set", "FrozenSet", "Mapping", "MutableMapping",
    "Callable", "Type", "ClassVar", "Final", "Literal", "TypeVar",
})


def _first_constructed_class(graph: CallGraph, mod: ModuleInfo,
                             value: ast.expr) -> str | None:
    """Type a value takes from a constructor call, if we can tell.

    Returns an analyzed class qname, or ``"ext:<dotted>"`` when the
    constructor resolves to an import from outside the analyzed set
    (``np.random.default_rng(...)`` -> ``ext:numpy.random.default_rng``).
    Calls on externally-typed receivers classify as external with the
    full dotted name, which is what the flow rules match RNG usage on.
    """
    external: str | None = None
    for chain in _value_class_candidates(value):
        if len(chain) == 1:
            resolved = _resolve_class_name(graph, mod, chain[0])
            if resolved is not None:
                return resolved
            target = _resolve_symbol(graph, mod, chain[0])
            if target is not None and external is None \
                    and not _targets_analyzed(graph, target):
                external = f"ext:{target}"
        else:
            root = mod.imports.get(chain[0])
            if root is None:
                continue
            full = ".".join([root, *chain[1:]])
            if full in graph.classes:
                return full
            if root in graph.classes and len(chain) == 2:
                # classmethod-factory heuristic: ``Impl.fresh()`` yields
                # an Impl (the dominant pattern for alternate ctors)
                return root
            if external is None and not _targets_analyzed(graph, root):
                external = f"ext:{full}"
    return external


def _targets_analyzed(graph: CallGraph, dotted: str) -> bool:
    """Whether ``dotted`` points inside the analyzed module set."""
    root = dotted.split(".")[0]
    return any(m == root or m.startswith(root + ".") for m in graph.modules) \
        or dotted in graph.functions or dotted in graph.classes


def _annotation_type(graph: CallGraph, mod: ModuleInfo,
                     annotation: ast.expr | None) -> str | None:
    """Receiver type named by an annotation: analyzed class, or ext-typed.

    Prefers an analyzed class anywhere in the annotation over the first
    external hit, so ``Sequence[EvalRequest]`` types as ``EvalRequest``
    rather than ``ext:typing.Sequence``.
    """
    external: str | None = None
    for cand in _annotation_names(annotation):
        head = cand.split(".")[0]
        if head in _TYPING_NAMES or head in _BUILTIN_NAMES:
            continue
        resolved = _resolve_class_name(graph, mod, head)
        if resolved is not None:
            return resolved
        target = _resolve_symbol(graph, mod, head)
        if target is not None and external is None \
                and not _targets_analyzed(graph, target) \
                and not target.startswith("typing"):
            tail = cand.split(".")[1:]
            external = "ext:" + ".".join([target, *tail])
    return external


class _LocalState:
    """Per-function resolution context: params, annotations, local types."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo, info: FunctionInfo):
        self.graph = graph
        self.mod = mod
        self.info = info
        args = info.node.args
        every = (list(args.posonlyargs) + list(args.args)
                 + list(args.kwonlyargs))
        if args.vararg:
            every.append(args.vararg)
        if args.kwarg:
            every.append(args.kwarg)
        self.params = {a.arg for a in every}
        self.param_types: dict[str, str] = {}
        for a in every:
            typed = _annotation_type(graph, mod, a.annotation)
            if typed is not None:
                self.param_types[a.arg] = typed
        #: locals assigned from a constructor call exactly once
        self.local_types: dict[str, str] = {}
        reassigned: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                resolved = _first_constructed_class(graph, mod, node.value)
                if name in self.local_types or name in reassigned:
                    reassigned.add(name)
                    self.local_types.pop(name, None)
                elif resolved is not None:
                    self.local_types[name] = resolved
                else:
                    reassigned.add(name)

    def type_of_name(self, name: str) -> str | None:
        if name in self.local_types:
            return self.local_types[name]
        return self.param_types.get(name)


def _collect_sites(graph: CallGraph, mod: ModuleInfo, info: FunctionInfo) -> None:
    state = _LocalState(graph, mod, info)
    sites: list[CallSite] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            sites.append(_resolve_call(graph, mod, info, state, node))
    graph.sites[info.qname] = sites


def _site(info: FunctionInfo, node: ast.Call, text: str, kind: str,
          callee: str | None = None, external: str | None = None) -> CallSite:
    return CallSite(
        caller=info.qname, path=info.path, line=node.lineno,
        col=node.col_offset, text=text, kind=kind, callee=callee,
        external=external,
    )


def _resolve_call(graph: CallGraph, mod: ModuleInfo, info: FunctionInfo,
                  state: _LocalState, node: ast.Call) -> CallSite:
    # super().method() — resolve along the MRO past the defining class.
    if (isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
            and info.class_qname is not None):
        method = node.func.attr
        for cls in graph.mro(info.class_qname)[1:]:
            hit = graph.classes[cls].methods.get(method)
            if hit is not None:
                return _site(info, node, f"super().{method}", "internal",
                             callee=hit)
        return _site(info, node, f"super().{method}", "unresolved")

    chain = _dotted(node.func)
    if chain is None:
        return _site(info, node, "<dynamic>", "unresolved")
    text = ".".join(chain)
    head, rest = chain[0], chain[1:]

    # self.method() / self.attr.method() / cls.method() / bare cls()
    if info.class_qname is not None and head in (info.self_name, "cls") \
            and head is not None:
        if not rest:
            # ``cls(...)`` in a classmethod factory -> the constructor
            ctor = graph.constructor_of(info.class_qname)
            if ctor is not None:
                return _site(info, node, text, "internal", callee=ctor)
            return _site(info, node, text, "unresolved")
        if len(rest) == 1:
            hit = graph.resolve_method(info.class_qname, rest[0])
            if hit is not None:
                return _site(info, node, text, "internal", callee=hit)
            attr_cls = graph.resolve_attr_type(info.class_qname, rest[0])
            if attr_cls is not None:
                if attr_cls.startswith("ext:"):
                    return _site(info, node, text, "external",
                                 external=attr_cls[4:])
                # calling an instance attribute: dispatches to __call__
                call = graph.resolve_method(attr_cls, "__call__")
                if call is not None:
                    return _site(info, node, text, "internal", callee=call)
            return _site(info, node, text, "unresolved")
        if len(rest) == 2:
            attr_cls = graph.resolve_attr_type(info.class_qname, rest[0])
            if attr_cls is not None:
                if attr_cls.startswith("ext:"):
                    return _site(info, node, text, "external",
                                 external=f"{attr_cls[4:]}.{rest[1]}")
                hit = graph.resolve_method(attr_cls, rest[1])
                if hit is not None:
                    return _site(info, node, text, "internal", callee=hit)
            if rest[1] in _BUILTIN_METHODS:
                return _site(info, node, text, "external",
                             external=f"<method>.{rest[1]}")
            return _site(info, node, text, "unresolved")
        return _site(info, node, text, "unresolved")

    # bare name
    if not rest:
        typed = state.type_of_name(head)
        if typed is not None and head not in mod.imports \
                and not typed.startswith("ext:"):
            # a local/param holding an instance: calling it is __call__
            call = graph.resolve_method(typed, "__call__")
            if call is not None:
                return _site(info, node, text, "internal", callee=call)
        target = _resolve_symbol(graph, mod, head)
        if target is not None:
            if target in graph.functions:
                return _site(info, node, text, "internal", callee=target)
            if target in graph.classes:
                ctor = graph.constructor_of(target)
                return _site(info, node, text, "internal",
                             callee=ctor or target)
            if target in graph.modules:
                return _site(info, node, text, "unresolved")
            return _site(info, node, text, "external", external=target)
        if head in state.params:
            return _site(info, node, text, "unresolved")
        if head in _BUILTIN_NAMES:
            return _site(info, node, text, "external",
                         external=f"builtins.{head}")
        return _site(info, node, text, "unresolved")

    # dotted: local/param receiver with an inferred type
    typed = state.type_of_name(head)
    if typed is not None:
        if typed.startswith("ext:"):
            return _site(info, node, text, "external",
                         external=".".join([typed[4:], *rest]))
        if len(rest) == 1:
            hit = graph.resolve_method(typed, rest[0])
            if hit is not None:
                return _site(info, node, text, "internal", callee=hit)

    # dotted through an imported root or module-scope symbol
    target = _resolve_symbol(graph, mod, head)
    if target is not None:
        full = ".".join([target, *rest])
        resolved = _resolve_dotted(graph, full)
        if resolved is not None:
            return _site(info, node, text, "internal", callee=resolved)
        root = target.split(".")[0]
        if root not in graph.modules and not any(
            m == root or m.startswith(root + ".") for m in graph.modules
        ):
            return _site(info, node, text, "external", external=full)
        return _site(info, node, text, "unresolved")

    # unknown receiver: builtin-ish method names classify as external
    if rest[-1] in _BUILTIN_METHODS:
        return _site(info, node, text, "external",
                     external=f"<method>.{rest[-1]}")
    return _site(info, node, text, "unresolved")


def _resolve_dotted(graph: CallGraph, full: str) -> str | None:
    """Resolve an absolute dotted path against the analyzed set."""
    if full in graph.functions:
        return full
    if full in graph.classes:
        return graph.constructor_of(full) or full
    parts = full.split(".")
    # Class.method through the MRO
    for split in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:split])
        if prefix in graph.classes:
            remainder = parts[split:]
            if len(remainder) == 1:
                return graph.resolve_method(prefix, remainder[0])
            return None
        if prefix in graph.modules:
            mod = graph.modules[prefix]
            remainder = parts[split:]
            head = remainder[0]
            sym = _resolve_symbol(graph, mod, head)
            if sym is None:
                return None
            if len(remainder) == 1:
                if sym in graph.functions:
                    return sym
                if sym in graph.classes:
                    return graph.constructor_of(sym) or sym
                return None
            return _resolve_dotted(graph, ".".join([sym, *remainder[1:]]))
    return None
