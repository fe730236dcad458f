"""repro.staticcheck — AST invariant linter and domain validator.

The determinism and cache-purity invariants earlier PRs established by
hand (bit-identical ``run_batch`` vs scalar ``run()``, seed-keyed
faults, complete cache keys, slotted hot-path classes)
are enforced here statically, at PR time, instead of discovered through
flaky property-test failures.

Three rule families:

* **AST rules** (``RS001``-``RS006``, :mod:`repro.staticcheck.rules`)
  lint source files for unseeded randomness, wall-clock reads in hot
  paths, mutable default arguments, float equality in bit-identity
  modules, out-of-``__slots__`` writes, and cache-key drift.
* **Domain validation** (``RD001``-``RD007``,
  :mod:`repro.staticcheck.domain`) imports the configuration spaces,
  constraints, and workload registry and checks them for structural
  sanity — defaults inside bounds, round-tripping encodings, anchored
  constraints, feasible grid corners, log-scale consistency.
* **Flow rules** (``RF001``, ``RF002``, ``RF005``,
  :mod:`repro.staticcheck.flow`) walk the project-wide call graph
  (:mod:`repro.staticcheck.graph`) and enforce the invariants
  interprocedurally: seed provenance, cache-key purity closure, and
  scalar/batch leaf-set agreement — each finding carries its call
  chain.  Enable with ``--flow``.

Every family's metadata lives in one declarative table
(:mod:`repro.staticcheck.registry`), which serves ``--list-rules`` and
``--rules`` id partitioning.

Run ``python -m repro.staticcheck`` (see :mod:`repro.staticcheck.cli`);
suppress individual lines with ``# staticcheck: ignore[RS004]`` plus a
justifying comment.
"""

from .domain import (
    RESOURCE_PACKING,
    ConstraintSpec,
    validate_default_domain,
    validate_space,
    validate_workloads,
)
from .flow import (
    ALL_FLOW_RULES,
    FlowReport,
    flow_rule_catalogue,
    get_flow_rules,
    lint_flow,
    run_flow_rules,
)
from .graph import CallGraph, build_call_graph
from .model import Finding, LintResult, Severity
from .registry import RuleEntry, partition_rule_ids, rule_registry
from .rules import ALL_RULES, get_rules, rule_catalogue
from .runner import iter_python_files, lint_paths, lint_source
from .waivers import WAIVERS, Waiver, expected_by_rule, reason_for

__all__ = [
    "WAIVERS",
    "Waiver",
    "expected_by_rule",
    "reason_for",
    "RuleEntry",
    "partition_rule_ids",
    "rule_registry",
    "Finding",
    "LintResult",
    "Severity",
    "ALL_RULES",
    "get_rules",
    "rule_catalogue",
    "ALL_FLOW_RULES",
    "FlowReport",
    "flow_rule_catalogue",
    "get_flow_rules",
    "lint_flow",
    "run_flow_rules",
    "CallGraph",
    "build_call_graph",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "ConstraintSpec",
    "RESOURCE_PACKING",
    "validate_space",
    "validate_workloads",
    "validate_default_domain",
]
