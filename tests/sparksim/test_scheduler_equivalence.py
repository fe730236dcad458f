"""Property tests: the scheduler's fast kernels are exact.

The chunked numpy `_list_schedule` must return bit-identical makespans to
the reference heap implementation for every input, the partition-based
median/quantile kernels bit-identical values to ``np.median`` /
``np.quantile``, their row-wise twin bit-identical values to the 1-D
kernel, and the row-matrix twins the batch simulator uses
bit-identical results to the 1-D path row by row — they are hot-path
optimisations, not approximations.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sparksim.costmodel import Calibration
from repro.sparksim.scheduler import (
    _MIN_VECTOR_SLOTS,
    _list_schedule,
    _list_schedule_heap,
    _median_1d,
    _median_quantile_1d,
    _median_quantile_rows,
    _sample_duration_rows,
    _sample_durations,
    _schedule_1d,
    _schedule_rows,
)

durations = st.lists(
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=400,
)


@settings(max_examples=200, deadline=None)
@given(durations, st.integers(min_value=1, max_value=300))
def test_vectorized_matches_heap_exactly(tasks, slots):
    d = np.asarray(tasks, dtype=float)
    assert _list_schedule(d, slots) == _list_schedule_heap(d, slots)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=_MIN_VECTOR_SLOTS, max_value=256),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vectorized_path_matches_heap_at_scale(slots, n_tasks, seed):
    # Force the vectorized code path (slots >= _MIN_VECTOR_SLOTS) on
    # skewed workloads: a log-uniform body plus occasional stragglers.
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(-3, 3, n_tasks))
    stragglers = rng.random(n_tasks) < 0.02
    d[stragglers] *= 50.0
    assert _list_schedule(d, slots) == _list_schedule_heap(d, slots)


@settings(max_examples=100, deadline=None)
@given(durations, st.integers(min_value=1, max_value=300))
def test_greedy_makespan_bounds(tasks, slots):
    d = np.asarray(tasks, dtype=float)
    m = _list_schedule(d, slots)
    lower = max(float(d.max()), float(d.sum()) / slots)
    assert m >= lower - 1e-9 * max(1.0, lower)
    assert m <= float(d.sum()) / slots + float(d.max()) + 1e-9


def test_ties_and_equal_durations():
    d = np.full(500, 3.0)
    assert _list_schedule(d, 32) == _list_schedule_heap(d, 32)


def test_descending_and_ascending_orders():
    base = np.exp(np.linspace(-2, 2, 777))
    for d in (base, base[::-1].copy()):
        assert _list_schedule(d, 48) == _list_schedule_heap(d, 48)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: task durations as the simulator draws them: positive, with ties
task_durations = st.lists(
    st.one_of(st.floats(min_value=1e-6, max_value=1e6),
              st.sampled_from((0.5, 1.0, 2.0))),
    min_size=1, max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(task_durations,
       st.one_of(st.floats(min_value=0.0, max_value=1.0),
                 st.sampled_from((0.0, 0.5, 0.75, 0.95, 1.0))))
def test_partition_kernels_match_numpy_bitwise(values, q):
    x = np.array(values)
    median, quantile = _median_quantile_1d(x, q)
    assert _bits(median) == _bits(float(np.median(x)))
    assert _bits(quantile) == _bits(float(np.quantile(x, q)))
    assert _bits(_median_1d(x)) == _bits(float(np.median(x)))
    assert x.tolist() == values          # the input is left unpartitioned


#: quantiles: the ones the simulator asks for, the ends, and any other
quantiles = st.one_of(st.sampled_from((0.0, 0.5, 0.75, 0.95, 1.0)),
                      st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=5),
       quantiles,
       st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@example(width=1, rows=3, q=0.95, seed=0, ties=False)
@example(width=2, rows=3, q=0.5, seed=1, ties=False)
@example(width=299, rows=2, q=0.75, seed=2, ties=True)
@example(width=300, rows=2, q=1.0, seed=3, ties=True)
def test_row_order_statistics_match_the_1d_kernel_bitwise(width, rows, q,
                                                          seed, ties):
    """``_median_quantile_rows`` is ``_median_quantile_1d`` on every row,
    bit for bit, and its ordered matrix ends in each row's max."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 1.0, (rows, width))
    if ties:
        # about half the tasks take one of three durations
        x = np.where(rng.random((rows, width)) < 0.5,
                     rng.choice((0.5, 1.0, 2.0), (rows, width)), x)
    given_x = x.copy()
    part, median, quantile = _median_quantile_rows(x, q)
    assert x.tobytes() == given_x.tobytes()      # the input is left as is
    for i in range(rows):
        want_median, want_quantile = _median_quantile_1d(x[i], q)
        assert _bits(median[i]) == _bits(want_median)
        assert _bits(quantile[i]) == _bits(want_quantile)
        assert _bits(part[i, width - 1]) == _bits(float(x[i].max()))


#: a speculating configuration's ``(multiplier, quantile)``, or None
speculation = st.one_of(
    st.none(),
    st.tuples(st.floats(min_value=1.1, max_value=5.0),
              st.floats(min_value=0.5, max_value=0.95)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=120),
    st.sampled_from((1, 2, 3, 8, 47, 48, 64)),
    speculation,
    st.integers(min_value=0, max_value=2**31 - 1),
)
# every row's tasks plus copies fit in the slots
@example(rows=8, n_tasks=40, slots=64, speculation=(1.1, 0.5), seed=3)
# some rows' tasks plus copies fit in the slots, the others overflow
@example(rows=8, n_tasks=57, slots=64, speculation=(1.1, 0.5), seed=1)
# only stragglers are candidates: some rows get copies, some none
@example(rows=12, n_tasks=30, slots=3, speculation=(2.0, 0.75), seed=7)
def test_row_kernels_match_the_scalar_path_row_by_row(rows, n_tasks, slots,
                                                      speculation, seed):
    calib = Calibration()
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.01, 5.0, rows)
    seeds = rng.integers(0, 2**31, rows).tolist()
    scalar_rngs = [np.random.default_rng(s) for s in seeds]
    batch_rngs = [np.random.default_rng(s) for s in seeds]
    expected = [_sample_durations(n_tasks, float(b), g, calib)
                for b, g in zip(base, scalar_rngs)]
    durations = _sample_duration_rows(n_tasks, base, batch_rngs, calib)
    assert durations.tobytes() == np.array(expected).tobytes()
    # every stream is left exactly where the scalar draws leave it
    assert [g.random() for g in batch_rngs] == \
        [g.random() for g in scalar_rngs]
    scheduled = np.array(_schedule_rows(durations, slots, speculation)).T
    for i, (b, s) in enumerate(zip(base.tolist(), seeds)):
        # _schedule_1d draws the same stream, then clamps and schedules
        # the one row: (makespan, mean, p50, p95, max)
        one = _schedule_1d(n_tasks, b, slots, speculation,
                           np.random.default_rng(s), calib, True)
        assert tuple(scheduled[i].tolist()) == one
