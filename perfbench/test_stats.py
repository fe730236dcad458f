"""The benchmark's own arithmetic: tail rule, failures, self time.

Run: ``python -m pytest perfbench``
"""

import math

import pytest

from perfbench.profile import reconcile, request_parts
from perfbench.stats import (
    covered_length,
    finite_or_max,
    percentile,
    self_times,
    tail,
)
from perfbench.trace import Span


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))                  # 1..10
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 100) == 10
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10),          # p99.9 would leave 1 beyond
    (10000, 99.9, 10),
    (100, 90.0, 10),
    (101, 90.0, 10),           # rank ceil(90.9) = 91; p91 leaves 9
    (25, 60.0, 10),
    (20, 50.0, 10),            # the smallest sample with a p50 tail by rule
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    t = tail([float(i) for i in range(1, n + 1)])
    assert (t.percentile, t.beyond, t.n) == (pct, beyond, n)
    assert t.value == n - beyond                 # sorted 1..n: rank = value


def test_tail_falls_back_to_p50_with_fewer_than_ten_beyond_it():
    t = tail([float(i) for i in range(1, 20)])   # 19 samples
    assert t.percentile == 50.0
    assert t.value == 10.0
    assert t.beyond == 9                         # shows the shortfall
    assert tail([7.0]).value == 7.0 and tail([7.0]).beyond == 0
    with pytest.raises(ValueError):
        tail([])


def test_failed_requests_count_as_infinite_latency_in_tails():
    ok = [1.0] * 90
    # 9 failures sit beyond the p90 rank: the tail is still a real latency
    t = tail(ok + [math.inf] * 9 + [2.0])
    assert t.percentile == 90.0 and t.value == 1.0
    # 11 failures: the p90 rank itself lands on a failure
    t = tail(ok[:89] + [math.inf] * 11)
    assert t.percentile == 90.0 and t.value == math.inf
    assert percentile([1.0, math.inf, math.inf], 50) == math.inf
    assert finite_or_max(math.inf) == 1.7976931348623157e308
    assert finite_or_max(0.25) == 0.25


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        (1, None, 0.0, 10.0),      # request
        (2, 1, 1.0, 4.0),          # child
        (3, 2, 2.0, 3.0),          # grandchild: inside child, not request
        (4, 1, 3.0, 6.0),          # child on another thread, overlaps 2
        (5, 1, 9.0, 12.0),         # child outliving the parent: clipped
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10 - (5 + 1))  # [1,6] + [9,10]
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)
    assert got[5] == pytest.approx(3.0)


def _span(span_id, parent, name, t0, t1, cpu=None, n=1, thread=1):
    span = Span(span_id, None, 7, name, t0, None if cpu is None else 0.0)
    span.parent, span.t1, span.thread, span.n = parent, t1, thread, n
    if cpu is not None:
        span.c1 = cpu
    return span


def _request(job_end=4.0, child_end=3.0):
    return [
        _span(1, None, "frontend.submit", 0.0, 4.001),
        _span(2, 1, "admission.try_admit", 0.0, 0.001, cpu=0.001),
        _span(3, 1, "scheduler.wait", 0.001, 0.5),
        _span(4, 1, "shard.wait", 0.5, 1.0),
        _span(5, 1, "shard.job", 1.0, job_end, cpu=1.5, thread=2),
        _span(6, 5, "service.ingest", 1.5, child_end, cpu=1.0, thread=2),
        _span(7, 6, "sparksim.simulate", 1.6, 2.9, cpu=0.9, thread=2),
    ]


def test_request_parts_cover_the_latency():
    spans = _request()
    parts = request_parts(spans[0], spans[1:5])
    assert parts == pytest.approx({
        "admission": 0.001, "queue": 0.499, "dispatch": 0.0,
        "shard_wait": 0.5, "shard_run": 3.0, "complete": 0.001,
    })
    with pytest.raises(LookupError):
        request_parts(spans[0], spans[1:4])


def test_reconcile_accepts_layers_that_add_up():
    summary, failures = reconcile(_request(), process_cpu_s=2.0)
    assert failures == []
    assert summary["requests_reconciled"] == 1
    assert summary["request_residual_max_s"] == pytest.approx(0.0, abs=1e-9)
    assert summary["job_error_max_s"] == pytest.approx(0.0, abs=1e-12)


def test_reconcile_rejects_gaps_overhangs_and_excess_cpu():
    spans = _request()
    spans[2].t0 = 0.2                  # 199 ms nobody accounts for
    _, failures = reconcile(spans, process_cpu_s=2.0)
    assert any("parts sum to" in f for f in failures)
    _, failures = reconcile(_request(job_end=4.5), process_cpu_s=2.0)
    assert any("negative" in f for f in failures)
    _, failures = reconcile(_request(child_end=4.5), process_cpu_s=2.0)
    assert any("self times" in f for f in failures)
    _, failures = reconcile(_request(), process_cpu_s=1.0)
    assert any("CPU" in f for f in failures)
