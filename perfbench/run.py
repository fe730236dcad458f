"""The service benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest_closed --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the stack up several times (the median is
``setup_s``), runs one untraced pass over the seeded inputs, checks the
outputs and prints every end-to-end metric.  ``--trace 1`` runs that
untraced pass and then a traced pass over the same inputs on a fresh
stack, checks that the layers reconcile, writes the spans as JSON lines
to ``perfbench/out/`` and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object; the
exit code is 1 when an output or reconciliation check fails.

The benchmark imports the program from ``src/`` next to this directory
and exits non-zero without a result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's program, never an installed copy.
    sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.profile import (  # noqa: E402
    PER_LAYER,
    Counters,
    layer_metrics,
    reconcile,
)
from perfbench.stats import finite_or_max, percentile, tail  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    N_CORES,
    WORKLOADS,
    Baseline,
    Inputs,
    Pass,
    Sent,
    Stack,
    check_outputs,
    drive,
    generate,
    set_up,
)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7
OUT_DIR = ROOT / "perfbench" / "out"

#: every end-to-end SLI of the service, by name -> unit; a value is
#: None (printed n/a) where the workload sends no such request
SLI_METRICS = {
    "tune_p50_s": "s",
    "tune_tail_s": "s",
    "ingest_p50_s": "s",
    "ingest_tail_s": "s",
    "runs_per_s": "runs/s",
    "deploys_per_s": "deployments/s",
    "failed_frac": "share",
    "deployed_runtime_s": "s",
    "tuning_usd_per_deploy": "USD",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: the end-to-end metrics BENCHMARK.json gates, by name -> unit: the
#: forms of the SLIs that every gated workload reports
GATED_METRICS = {
    "p50_s": "s",
    "tail_s": "s",
    "runs_per_s": "runs/s",
    "completed_frac": "share",
    "production_runtime_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: the requests whose latency is a workload's p50_s/tail_s
HEADLINE = {"ingest_closed": "ingest", "onboard_open": "tune",
            "burst_mixed": "tune"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _segment(sent: list[Sent]) -> dict:
    """Latencies and rates of one segment (ingest chunk or burst round)."""
    wall = max(s.done for s in sent) - min(s.start for s in sent)
    out: dict = {}
    for kind, prefix in (("tune", "tune"), ("runs", "ingest")):
        samples = [s.latency for s in sent if s.kind == kind]
        if samples:
            t = tail(samples)
            out[f"{prefix}_p50_s"] = percentile(samples, 50)
            out[f"{prefix}_tail_s"] = t.value
            out[f"{prefix}_tail_label"] = t.label()
    if any(s.kind == "runs" for s in sent):
        out["runs_per_s"] = sum(s.outcome.runs_submitted for s in sent
                                if s.ok and s.kind == "runs") / wall
    if any(s.kind == "tune" for s in sent):
        out["deploys_per_s"] = sum(s.ok for s in sent
                                   if s.kind == "tune") / wall
    return out


def _production_runtime_s(stack: Stack, before: Baseline,
                          result: Pass) -> float | None:
    """Mean over tenants of the mean runtime of their production runs.

    A tenant's records in the pass are its tune's (``tuning_evaluations``
    of them, probe included) followed by its production runs.
    """
    tuning = {d.tenant: d.tuning_evaluations for d in result.deployments}
    seen: dict[str, int] = defaultdict(int)
    runs: dict[str, list[float]] = defaultdict(list)
    for record in stack.log.tail(before.records):
        seen[record.tenant] += 1
        if seen[record.tenant] > tuning.get(record.tenant, 0):
            runs[record.tenant].append(record.runtime_s)
    if not runs:
        return None
    return statistics.fmean(statistics.fmean(r) for r in runs.values())


def end_to_end(workload: str, result: Pass, stack: Stack, before: Baseline,
               setup_s: float) -> tuple[dict, dict]:
    """Every end-to-end metric of one pass (SLIs and gated forms),
    plus the notes printed beside them.

    Latencies and rates are medians over the pass's segments, so a
    stretch of machine noise that slows one segment does not move them.
    """
    by_segment: dict[int, list[Sent]] = defaultdict(list)
    for sent in result.sent:
        by_segment[sent.segment].append(sent)
    segments = [_segment(group) for _, group in sorted(by_segment.items())]
    metrics: dict = {}
    notes: dict = {}
    for name in ("tune_p50_s", "tune_tail_s", "ingest_p50_s",
                 "ingest_tail_s", "runs_per_s", "deploys_per_s"):
        values = [seg[name] for seg in segments if name in seg]
        metrics[name] = statistics.median(values) if values else None
        if values and name.endswith("_tail_s"):
            label = segments[0][name.replace("_s", "_label")]
            notes[name] = f"{label}, median of {len(values)} segments"
        elif len(values) > 1:
            notes[name] = f"median of {len(values)} segments"
    deployments = result.deployments
    tuning_usd = sum(ledger.tuning_cost for ledger in stack.ledgers) \
        - before.tuning_cost
    failed_frac = sum(not s.ok for s in result.sent) / len(result.sent)
    metrics.update({
        "failed_frac": failed_frac,
        "deployed_runtime_s": (statistics.fmean(
            d.expected_runtime_s for d in deployments) if deployments
            else None),
        "tuning_usd_per_deploy": (tuning_usd / len(deployments)
                                  if deployments else None),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "completed_frac": 1.0 - failed_frac,
        "production_runtime_s": _production_runtime_s(stack, before, result),
    })
    headline = HEADLINE[workload]
    metrics["p50_s"] = metrics[f"{headline}_p50_s"]
    metrics["tail_s"] = metrics[f"{headline}_tail_s"]
    notes["p50_s"] = f"= {headline}_p50_s"
    notes["tail_s"] = f"= {headline}_tail_s"
    return metrics, notes


def _pass(stack: Stack, inputs: Inputs, tracer: Tracer | None = None):
    """One timed pass; closes the stack's shards when the load is done."""
    before = Baseline.of(stack)
    counters = Counters.of(stack)
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.install()
    try:
        result = drive(stack, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stack.close()
    process_cpu = time.process_time() - cpu0
    problems = check_outputs(stack, before, result)
    return result, before, problems, process_cpu, Counters.of(stack) - counters


def _timed_setups(inputs: Inputs, repeats: int) -> tuple[Stack, float]:
    times = []
    for i in range(repeats):
        gc.collect()            # the discarded stack's garbage is not set-up
        t0 = time.perf_counter()
        stack = set_up(inputs)
        times.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            stack.close()
    return stack, statistics.median(times)


def _traced_pass(workload: str, inputs: Inputs, untraced: Pass, e2e: dict,
                 setup_s: float) -> tuple[dict, list[str]]:
    """The traced pass on a fresh stack: per-layer metrics, the
    reconciliation checks, the overhead against the untraced pass, and
    the spans written out once it is over."""
    tracer = Tracer()
    stack = set_up(inputs)
    traced, before, problems, process_cpu, counters = _pass(stack, inputs,
                                                            tracer)
    problems = [f"traced pass: {p}" for p in problems]
    summary, failures = reconcile(tracer.spans, process_cpu)
    if counters.ledger_charges != sum(s.name == "ledger.charge"
                                      for s in tracer.spans):
        failures.append("ledger.charge spans do not match the ledgers' "
                        "charge counts")
    problems += [f"reconciliation: {f}" for f in failures]
    layers = layer_metrics(
        tracer.spans, counters, traced.loop_cpu_s,
        retries=sum(s.attempts - 1 for s in traced.sent),
        lag_max_s=traced.lag_max_s, max_depth=tracer.max_depth)
    layers.update({f"reconcile.{k}": v for k, v in summary.items()})
    traced_e2e, _ = end_to_end(workload, traced, stack, before, setup_s)
    for name in ("p50_s", "runs_per_s"):
        measured = e2e[name] and math.isfinite(e2e[name]) \
            and math.isfinite(traced_e2e[name])
        layers[f"trace.overhead.{name}"] = (
            traced_e2e[name] / e2e[name] - 1 if measured else 0.0)
    layers["trace.overhead.wall"] = traced.wall_s / untraced.wall_s - 1
    layers["trace.spans"] = len(tracer.spans)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}.spans.jsonl"
    with path.open("w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span.as_dict()) + "\n")
    print(f"  traced pass: {traced.wall_s:.3f}s wall, "
          f"{len(tracer.spans)} spans -> {path.relative_to(ROOT)}")
    return layers, problems


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = generate(args.workload, args.seed, args.seconds)
    # setup_s is an end-to-end metric; a traced run needs one set-up only
    stack, setup_s = _timed_setups(inputs,
                                   1 if args.trace else SETUP_REPEATS)
    result, before, problems, _, _ = _pass(stack, inputs)
    e2e, notes = end_to_end(args.workload, result, stack, before, setup_s)
    attempted = len(result.sent)
    failed = sum(not s.ok for s in result.sent)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} shards={N_CORES} clients={N_CORES} "
          f"trace={args.trace}")
    reasons = Counter(s.error for s in result.sent if not s.ok)
    print(f"  untraced pass: {result.wall_s:.3f}s wall, "
          f"generator lag max {result.lag_max_s:.4f}s, "
          f"{attempted} requests, {failed} failed"
          + (f" {dict(reasons)}" if reasons else ""))
    for title, table in (("service SLIs", SLI_METRICS),
                         ("gated metrics", GATED_METRICS)):
        print(f"  {title}:")
        for name, unit in table.items():
            print(f"    {name:24s} {_fmt(e2e[name]):>12s} {unit:14s} "
                  f"{notes.get(name, '')}")

    if args.trace:
        layers, traced_problems = _traced_pass(args.workload, inputs,
                                               result, e2e, setup_s)
        problems += traced_problems
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:36s} {_fmt(layers[name]):>12s} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": finite_or_max(e2e[name]), "unit": unit}
                   for name, unit in GATED_METRICS.items()
                   if e2e[name] is not None}

    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("  checks: " + ("ok" if not problems else f"{len(problems)} failed"))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
