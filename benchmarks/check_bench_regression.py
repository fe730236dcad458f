"""Gate benchmark regressions against a committed benchmark JSON.

Compares a freshly-generated benchmark report against the committed
baseline and fails when a gated scenario metric regressed beyond its
tolerance.  The gate table is selected by the report's ``benchmark``
field, so one checker serves every ``BENCH_*.json`` in the repo:

* **evaluation engine throughput** (``BENCH_throughput.json``) gates
  ``evals_per_s`` per scenario.  Cold single-process paths are tight
  (their noise is the code under guard); pool-backed scenarios get a
  looser bound — their numbers also move with host core count and
  fork/IPC weather.  Warm-cache scenarios are excluded entirely: they
  measure cache bookkeeping, not simulation.
* **multi-tenant service load** (``BENCH_service.json``) gates the two
  service SLIs: ``runs_per_s`` (higher is better; loose — the asyncio +
  shard-thread interleaving moves with the host) and
  ``tune_latency_p99_s`` (lower is better; may at most double).
* **suggest path** (``BENCH_suggest.json``) gates the provider's two
  hot read paths: ``suggests_per_s`` (incremental surrogate cycles at
  200 observations; tight — pure single-thread numpy) and the indexed
  ``lookups_per_s`` over the 1M-record history (loose — sub-millisecond
  quantities move with timer resolution on shared runners).

A scenario whose report entry carries a ``"skipped"`` marker — in the
baseline **or** the fresh report — is host-gated (e.g. the two-worker
pool scenario on a single-core runner) and is not compared.

Usage::

    python benchmarks/check_bench_regression.py BASELINE FRESH \
        [--max-regression 0.30]

``--max-regression`` scales every tolerance by the same factor relative
to the 0.30 default (so ``0.60`` doubles each scenario's allowance).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: default fractional drop allowed for a tight (cold-path) gate
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class Gate:
    """One gated metric of one scenario."""

    metric: str
    tolerance: float              # allowed fractional regression
    higher_is_better: bool = True


#: report ``benchmark`` field -> {scenario name -> gates}
GATED_BENCHMARKS: dict[str, dict[str, tuple[Gate, ...]]] = {
    "evaluation engine throughput": {
        "sim_scalar_cold": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "sim_batch_cold": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "sim_batch_joint": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "sim_batch_repeated": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "engine_serial_scalar": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "engine_serial": (Gate("evals_per_s", DEFAULT_TOLERANCE),),
        "engine_parallel_shm": (Gate("evals_per_s", 0.60),),
    },
    "multi-tenant service load": {
        "load_1000x100": (
            Gate("runs_per_s", 0.60),
            Gate("tune_latency_p99_s", 1.00, higher_is_better=False),
        ),
    },
    "suggest path": {
        "suggest_throughput": (Gate("suggests_per_s", DEFAULT_TOLERANCE),),
        "similarity_lookup_1M": (Gate("lookups_per_s", 0.60),),
    },
}


def check(baseline: dict, fresh: dict, max_regression: float) -> list[str]:
    failures = []
    scale = max_regression / DEFAULT_TOLERANCE
    name = fresh.get("benchmark")
    gates = GATED_BENCHMARKS.get(name)
    if gates is None:
        return [f"unknown benchmark {name!r}: no gate table"]
    if baseline.get("benchmark") not in (None, name):
        return [
            f"baseline is for {baseline.get('benchmark')!r}, fresh for {name!r}"
        ]
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})
    for scenario, scenario_gates in gates.items():
        base = base_scenarios.get(scenario)
        new = fresh_scenarios.get(scenario)
        if base is None:
            # The committed baseline predates this scenario; nothing to
            # regress against yet — the next regeneration picks it up.
            continue
        if new is None:
            failures.append(f"{scenario}: missing from fresh report")
            continue
        if "skipped" in base or "skipped" in new:
            # Host-gated scenario (e.g. needs >= 2 cores): either side
            # recorded a skip marker instead of numbers, so there is
            # nothing meaningful to compare.
            continue
        for gate in scenario_gates:
            allowed = gate.tolerance * scale
            if gate.higher_is_better:
                allowed = min(allowed, 0.99)
            base_value = float(base[gate.metric])
            new_value = float(new[gate.metric])
            if gate.higher_is_better:
                bound = base_value * (1.0 - allowed)
                regressed = new_value < bound
                drop = 1.0 - new_value / base_value if base_value else 0.0
            else:
                bound = base_value * (1.0 + allowed)
                regressed = new_value > bound
                drop = new_value / base_value - 1.0 if base_value else 0.0
            if regressed:
                failures.append(
                    f"{scenario}.{gate.metric}: {new_value:.2f} is "
                    f"{drop:.0%} {'below' if gate.higher_is_better else 'above'} "
                    f"the committed {base_value:.2f} (allowed: {allowed:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path,
                        help="committed benchmark JSON")
    parser.add_argument("fresh", type=Path,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="tight-gate fractional drop; scales every "
                             "per-scenario tolerance (default 0.30)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.max_regression < 1.0:
        parser.error("--max-regression must be in [0, 1)")

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures = check(baseline, fresh, args.max_regression)
    for scenario, scenario_gates in GATED_BENCHMARKS.get(
            fresh.get("benchmark"), {}).items():
        data = fresh.get("scenarios", {}).get(scenario)
        if not data:
            continue
        if "skipped" in data:
            print(f"{scenario}: skipped ({data['skipped']})")
            continue
        for gate in scenario_gates:
            print(f"{scenario}.{gate.metric:<32}"
                  f"{float(data[gate.metric]):>12.2f}")
    if failures:
        print("\nbenchmark regression:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nno regression beyond {args.max_regression:.0%} base tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
