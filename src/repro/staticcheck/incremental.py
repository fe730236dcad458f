"""Incremental staticcheck: reuse findings for files that did not change.

The cache (``.staticcheck_cache.json``, git-ignored) stores three
sections:

* ``files`` — per-file findings and suppressions keyed on the blake2b
  hash of the file's bytes.  Only changed files are re-parsed.
* ``tree.flow`` — the interprocedural pass's findings plus its call-graph
  stats, keyed on a *tree hash* over every ``(relpath, filehash)`` pair.
  Flow findings are whole-program facts: one edited file can change a
  call chain three modules away, so anything less than a tree key would
  serve stale chains.
* ``tree.concurrency`` — the RC pass's findings and lock-model stats,
  same tree key (lock inference is whole-program too).
* ``tree.domain`` — the config-space validator's findings, same key.

The flow and concurrency passes run through one load-or-run-then-store
loop; when both miss the cache they share one call-graph build.

The cache **signature** folds in the cache format version, the active
rule ids (per-file, flow, and concurrency), the scope switch, and a
digest of the staticcheck package's own sources — editing any rule
(``concurrency.py`` included) invalidates every entry, so a stale
linter can never replay old verdicts.

Warm runs on an unchanged tree skip ``ast.parse`` entirely (and never
even import the domain validator), and re-rendered output is
byte-identical to the cold run's because findings round-trip through
:meth:`Finding.to_dict` / :meth:`Finding.from_dict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .concurrency import ConcurrencyReport, ConcurrencyRule, lint_concurrency
from .flow import FlowReport, FlowRule, lint_flow
from .graph import CallGraph, build_call_graph
from .model import Finding, LintResult
from .rules import ALL_RULES, Rule
from .runner import iter_python_files, lint_source

__all__ = ["CACHE_FILE", "CheckOutcome", "incremental_check"]

CACHE_FILE = ".staticcheck_cache.json"
_CACHE_VERSION = 1


@dataclass
class CheckOutcome:
    """Everything one (possibly cached) staticcheck run produced."""

    result: LintResult
    stats: dict[str, object] | None = None
    #: files actually re-analyzed this run (cache misses)
    n_reanalyzed: int = 0
    #: whether the tree sections (flow, concurrency, domain) were served
    #: from cache
    tree_cached: bool = False


def _file_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _self_digest() -> str:
    """Digest of the staticcheck package's own sources."""
    here = Path(__file__).resolve().parent
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(here.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _signature(per_file_rules: Sequence[type[Rule]],
               flow_rules: Sequence[type[FlowRule]] | None,
               concurrency_rules: Sequence[type[ConcurrencyRule]] | None,
               respect_scopes: bool, run_domain: bool) -> str:
    parts = [
        f"v{_CACHE_VERSION}",
        ",".join(sorted(r.rule_id for r in per_file_rules)),
        ",".join(sorted(r.rule_id for r in (flow_rules or ()))),
        ",".join(sorted(r.rule_id for r in (concurrency_rules or ()))),
        f"scopes={respect_scopes}",
        f"domain={run_domain}",
        _self_digest(),
    ]
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


def _tree_hash(hashes: dict[str, str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for rel, file_hash in sorted(hashes.items()):
        h.update(rel.encode())
        h.update(file_hash.encode())
    return h.hexdigest()


def _load_cache(cache_path: Path, signature: str) -> dict:
    try:
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or payload.get("signature") != signature:
        return {}
    return payload


def _dump_findings(findings: Iterable[Finding]) -> list[dict]:
    return [f.to_dict() for f in findings]


def _load_findings(payload: Iterable[dict]) -> list[Finding]:
    return [Finding.from_dict(entry) for entry in payload]


def incremental_check(
    paths: Iterable[str | Path],
    per_file_rules: Sequence[type[Rule]] = ALL_RULES,
    flow_rules: Sequence[type[FlowRule]] | None = None,
    concurrency_rules: Sequence[type[ConcurrencyRule]] | None = None,
    respect_scopes: bool = True,
    run_domain: bool = False,
    cache_path: str | Path = CACHE_FILE,
    use_cache: bool = True,
) -> CheckOutcome:
    """Run the per-file pass (plus optional flow/concurrency/domain)
    with caching.

    ``use_cache=False`` is the ``--no-cache`` escape hatch: everything is
    re-analyzed and the cache file is left untouched.
    """
    cache_path = Path(cache_path)
    signature = _signature(per_file_rules, flow_rules, concurrency_rules,
                           respect_scopes, run_domain) if use_cache else ""
    cache = _load_cache(cache_path, signature) if use_cache else {}
    cached_files: dict = cache.get("files", {})

    files = iter_python_files(paths)
    sources: dict[str, bytes] = {}
    hashes: dict[str, str] = {}
    for path in files:
        data = path.read_bytes()
        key = str(path)
        sources[key] = data
        hashes[key] = _file_hash(data)

    result = LintResult()
    new_files_section: dict[str, dict] = {}
    n_reanalyzed = 0
    for path in files:
        key = str(path)
        entry = cached_files.get(key)
        if entry is not None and entry.get("hash") == hashes[key]:
            per_file = LintResult(
                findings=_load_findings(entry.get("findings", [])),
                n_files=1,
                suppressed=_load_findings(entry.get("suppressed", [])),
            )
        else:
            per_file = lint_source(
                sources[key].decode("utf-8"), path,
                rules=per_file_rules, respect_scopes=respect_scopes,
            )
            n_reanalyzed += 1
        new_files_section[key] = {
            "hash": hashes[key],
            "findings": _dump_findings(per_file.findings),
            "suppressed": _dump_findings(per_file.suppressed),
        }
        result.extend(per_file)

    tree = _tree_hash(hashes)
    cached_tree: dict = cache.get("tree", {})
    tree_cached = bool(cached_tree) and cached_tree.get("hash") == tree
    stats: dict[str, object] | None = None
    new_tree_section: dict[str, object] = {"hash": tree}

    tree_passes: list[tuple[
        str, Sequence[type], Callable[..., FlowReport | ConcurrencyReport],
    ]] = []
    if flow_rules is not None:
        tree_passes.append(("flow", flow_rules, lint_flow))
    if concurrency_rules is not None:
        tree_passes.append(("concurrency", concurrency_rules,
                            lint_concurrency))
    paths_str = [str(p) for p in files]
    #: one call graph shared by the tree passes when both miss the cache
    #: — rebuilding would re-parse the tree
    graph: CallGraph | None = None
    for section, rules, lint_fn in tree_passes:
        if tree_cached and section in cached_tree:
            entry = cached_tree[section]
            pass_result = LintResult(
                findings=_load_findings(entry.get("findings", [])),
                suppressed=_load_findings(entry.get("suppressed", [])),
            )
            pass_stats = entry.get("stats")
        else:
            tree_cached = False
            if graph is None and len(tree_passes) > 1:
                graph = build_call_graph(paths_str)
            report = lint_fn(paths_str, rules=rules, graph=graph)
            pass_result = report.result
            pass_result.n_files = 0     # files already counted above
            pass_stats = report.stats
        new_tree_section[section] = {
            "findings": _dump_findings(pass_result.findings),
            "suppressed": _dump_findings(pass_result.suppressed),
            "stats": pass_stats,
        }
        result.extend(pass_result)
        if isinstance(pass_stats, dict):
            stats = {**(stats or {}), **pass_stats}

    if run_domain:
        if tree_cached and "domain" in cached_tree:
            domain_findings = _load_findings(cached_tree["domain"])
        else:
            tree_cached = False
            from .domain import validate_default_domain

            domain_findings = list(validate_default_domain())
        new_tree_section["domain"] = _dump_findings(domain_findings)
        result.findings.extend(domain_findings)

    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)

    if use_cache:
        payload = {
            "signature": signature,
            "files": new_files_section,
            "tree": new_tree_section,
        }
        try:
            cache_path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass                         # read-only checkout: run uncached

    return CheckOutcome(
        result=result, stats=stats,
        n_reanalyzed=n_reanalyzed, tree_cached=tree_cached,
    )
