"""Perf — multi-tenant service under a full-population load burst.

Drives the :mod:`repro.core.serviced` stack (asyncio front end,
admission control, SLO-priority scheduling, fingerprint-sharded
sessions over one append-only history log) with the CI load profile:
**1000 concurrent tenants**, each tuning on a pinned cluster with a
lightweight random-search session and then ingesting 100 recurring
production executions — **100,000 submitted runs** total, all on the
serial single-host profile.

The two headline SLIs land in ``BENCH_service.json`` at the repo root
and are gated by ``check_bench_regression.py`` in the bench-smoke job:

* ``runs_per_s`` — production-run ingest throughput over the whole
  scenario wall time (higher is better, loose tolerance: the asyncio +
  shard-runner interleaving moves with the host);
* ``tune_latency_p99_s`` — p99 submit-to-deploy latency across all
  1000 tune requests (lower is better), timed from each tenant's first
  submit attempt.  Under a full-population burst against a 256-slot
  admission queue this includes the queue-full rejections, their retry
  backoff and the queueing time, which is the point: it is the latency
  a tenant actually experiences.

The scenario block also records the stack's flat ``counters``: admission
decisions, scheduler queue counts, jobs per shard, and the engine,
simulator and **per-phase wall-time** counters (suggest vs evaluate vs
ingest vs similarity) summed over shards, so a regression in either SLI
can be attributed to the phase that grew; the bench-smoke job uploads
the ``phase.*`` keys as their own artifact.  The phases run one at a
time on the pool's runner thread, so their sum is asserted to fit
within the scenario's wall time.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_perf_service.py -s``
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict
from pathlib import Path

from repro.core.serviced import LoadScenario, run_load

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: the CI load profile: a full-population burst on the serial profile
SCENARIO = LoadScenario(
    n_tenants=1000,
    n_workload_families=6,
    runs_per_tenant=100,
    ingest_batches=2,
    n_shards=8,
    disc_budget=3,
    batch_size=3,
    max_pending=256,
    per_tenant_inflight=2,
    seed=1,
)


def test_perf_service_load():
    report = run_load(SCENARIO)
    counters = report.counters
    phases = sorted({key.split(".")[1] for key in counters
                     if key.startswith("phase.")})

    # Acceptance: the whole population deploys and every run is ingested.
    assert report.tenants_deployed == SCENARIO.n_tenants
    assert report.tenants_denied == 0
    assert report.runs_submitted == SCENARIO.n_tenants * SCENARIO.runs_per_tenant
    assert report.runs_submitted >= 100_000

    # Every paid execution is in the shared history log: (probe + budget)
    # per tuning session plus every production run.
    expected_records = (
        SCENARIO.n_tenants * (1 + SCENARIO.disc_budget)
        + SCENARIO.n_tenants * SCENARIO.runs_per_tenant
    )
    assert report.history_records == expected_records

    # The burst must actually exercise admission control (1000 tenants
    # against a 256-slot queue), and retries must absorb every rejection.
    assert sum(value for key, value in counters.items()
               if key.startswith("admission.n_rejected.")) > 0

    # Same-fingerprint tenants share shards: their canonical probes are
    # warm-cache answers on the shard that saw them first.
    assert counters["engine.hits"] > 0

    # Latency SLIs are well-formed.
    assert report.tune_latency_p99_s >= report.tune_latency_p50_s > 0

    # Billing flowed through both ledger sides on every shard that ran.
    assert report.tuning_cost_usd > 0
    assert report.production_cost_usd > 0

    # The pool-wide per-phase wall-time breakdown (suggest vs evaluate
    # vs ingest vs similarity) must cover the phases this load exercises.
    assert set(phases) >= {"suggest", "evaluate", "ingest"}
    for phase in phases:
        assert counters[f"phase.{phase}.seconds"] >= 0.0
        assert counters[f"phase.{phase}.calls"] >= 1
    # One runner thread runs the phases one at a time, so they add up to
    # at most the wall clock.
    phase_s = sum(counters[f"phase.{phase}.seconds"] for phase in phases)
    assert phase_s <= report.wall_s

    out = {
        "benchmark": "multi-tenant service load",
        "machine": {"cpu_count": os.cpu_count(),
                    "platform": platform.platform()},
        "scenarios": {
            "load_1000x100": {
                # strict-JSON friendly: the uncapped budget (inf) -> null
                "scenario": {
                    k: (None if v == float("inf") else v)
                    for k, v in asdict(report.scenario).items()
                },
                "wall_s": report.wall_s,
                "runs_submitted": report.runs_submitted,
                "runs_per_s": report.runs_per_s,
                "tune_latency_p50_s": report.tune_latency_p50_s,
                "tune_latency_p99_s": report.tune_latency_p99_s,
                "tenants_deployed": report.tenants_deployed,
                "tenants_denied": report.tenants_denied,
                "slo_attained": report.slo_attained,
                "slo_missed": report.slo_missed,
                "tuning_cost_usd": report.tuning_cost_usd,
                "production_cost_usd": report.production_cost_usd,
                "history_records": report.history_records,
                "counters": counters,
            },
        },
    }
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")

    print(f"\n{'tenants':>10}{'runs':>10}{'wall':>9}{'runs/s':>9}"
          f"{'p50':>8}{'p99':>8}")
    print(f"{report.tenants_deployed:>10}{report.runs_submitted:>10}"
          f"{report.wall_s:>8.1f}s{report.runs_per_s:>9.0f}"
          f"{report.tune_latency_p50_s:>7.1f}s"
          f"{report.tune_latency_p99_s:>7.1f}s")
    print("per-phase: " + "  ".join(
        f"{phase} {counters[f'phase.{phase}.seconds']:.1f}s/"
        f"{counters[f'phase.{phase}.calls']}" for phase in phases))
