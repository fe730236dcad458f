"""repro.staticcheck — AST invariant linter and domain validator.

The determinism and cache-purity invariants earlier PRs established by
hand (bit-identical ``run_batch`` vs scalar ``run()``, seed-keyed
faults, complete cache keys, slotted hot-path classes)
are enforced here statically, at PR time, instead of discovered through
flaky property-test failures.

Two rule families:

* **AST rules** (``RS001``-``RS006``, :mod:`repro.staticcheck.rules`)
  lint source files for unseeded randomness, wall-clock reads in hot
  paths, mutable default arguments, float equality in bit-identity
  modules, out-of-``__slots__`` writes, and cache-key drift.
* **Domain validation** (``RD001``-``RD007``,
  :mod:`repro.staticcheck.domain`) imports the configuration spaces,
  constraints, and workload registry and checks them for structural
  sanity — defaults inside bounds, round-tripping encodings, anchored
  constraints, feasible grid corners, log-scale consistency.

Interprocedural properties (seed provenance, cache-key purity, the
scalar/batch identity) are left to the behavioural suites, which catch
every defect a call-graph pass caught in a mutation audit (DESIGN.md,
"The flow pass's mutation audit").

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
from .model import Finding, LintResult, Severity
from .registry import RuleEntry, partition_rule_ids, rule_registry
from .rules import ALL_RULES, get_rules, rule_catalogue
from .runner import iter_python_files, lint_paths, lint_source

__all__ = [
    "RuleEntry",
    "partition_rule_ids",
    "rule_registry",
    "Finding",
    "LintResult",
    "Severity",
    "ALL_RULES",
    "get_rules",
    "rule_catalogue",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "ConstraintSpec",
    "RESOURCE_PACKING",
    "validate_space",
    "validate_workloads",
    "validate_default_domain",
]
