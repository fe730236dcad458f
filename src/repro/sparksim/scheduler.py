"""Task scheduler: slot occupancy, noise, stragglers, speculation.

Turns a deterministic per-task cost into a stage makespan by list-
scheduling noisy task durations onto the granted executor slots, with a
heavy-tailed straggler model and optional speculative execution
(``spark.speculation``) that relaunches outliers at the cost of duplicate
work — the classic tail-vs-waste trade-off.

The simulator calls :func:`_schedule_1d` (one row, partition-kernel
reductions) and the row-matrix pair :func:`_sample_duration_rows` /
:func:`_schedule_rows` (row sorts; the simulator draws a matrix per
stage and schedules the matrices of every stage of one shape in one
call).  Their oracle is the scalar reference, ``schedule_stage`` in
``tests/oracles.py``, which reduces with ``np.median`` /
``np.quantile``.  Every kernel is exact — bit-identical values for the
same noise stream, not an approximation.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from .costmodel import Calibration

__all__: list[str] = []


def _sample_durations(n_tasks: int, base_task_s: float, rng: np.random.Generator,
                      calib: Calibration) -> np.ndarray:
    sigma = calib.task_noise_sigma
    durations = base_task_s * rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_tasks)
    stragglers = rng.random(n_tasks) < calib.straggler_probability
    n_straggle = int(stragglers.sum())
    if n_straggle:
        mult = 1.0 + rng.exponential(
            calib.straggler_mean_multiplier - 1.0, size=n_straggle,
        )
        durations[stragglers] *= mult
    return durations


def _sample_duration_rows(n_tasks: int, base_task_s: np.ndarray,
                          rngs: Sequence[np.random.Generator],
                          calib: Calibration) -> np.ndarray:
    """Row ``i`` is ``_sample_durations(n_tasks, base_task_s[i], rngs[i])``.

    Each generator makes exactly the scalar path's draws in the scalar
    order — lognormal noise, straggler uniforms, then one exponential
    per straggler — so its stream stays where the scalar path leaves it.
    Only the interleaving *across* generators changes, which no stream
    can observe.  The straggler multiply then runs once over the matrix:
    a boolean mask selects elements row-major, the same per-row order
    the scalar ``durations[stragglers] *= mult`` uses.
    """
    sigma = calib.task_noise_sigma
    mean = -0.5 * sigma**2
    m = len(rngs)
    noise = np.empty((m, n_tasks))
    uniform = np.empty((m, n_tasks))
    for i, rng in enumerate(rngs):
        noise[i] = rng.lognormal(mean=mean, sigma=sigma, size=n_tasks)
        rng.random(out=uniform[i])
    durations = base_task_s[:, None] * noise
    stragglers = uniform < calib.straggler_probability
    counts = np.count_nonzero(stragglers, axis=1).tolist()
    if any(counts):
        scale = calib.straggler_mean_multiplier - 1.0
        draws = [rngs[i].exponential(scale, size=c)
                 for i, c in enumerate(counts) if c]
        durations[stragglers] *= 1.0 + np.concatenate(draws)
    return durations


def _schedule_1d(n_tasks: int, base_task_s: float, slots: int,
                 speculation: tuple[float, float] | None,
                 rng: np.random.Generator, calib: Calibration, noise: bool
                 ) -> tuple[float, float, float, float, float]:
    """One row of the scalar reference's ``schedule_stage`` on validated
    inputs, as ``(makespan, mean, p50, p95, max)``.

    ``speculation`` is the configuration's ``(multiplier, quantile)``
    when ``spark.speculation`` is on, else ``None``.  The same draws and
    arithmetic as the scalar path, with every median and quantile taken
    by the partition kernels (:func:`_median_1d`,
    :func:`_median_quantile_1d`) instead of numpy's dispatching
    reductions.
    """
    if noise:
        durations = _sample_durations(n_tasks, base_task_s, rng, calib)
    else:
        durations = np.full(n_tasks, base_task_s)

    if speculation is not None and noise and n_tasks >= 4:
        # the reference's speculative clamp, on kernel reductions
        multiplier, quantile = speculation
        median, cutoff = _median_quantile_1d(durations, quantile)
        threshold = median * max(1.01, multiplier)
        candidates = durations > max(threshold, cutoff)
        speculated = int(candidates.sum())
        if speculated:
            durations[candidates] = np.minimum(durations[candidates],
                                               threshold + median)
            extra = np.full(speculated, _median_1d(durations) * 0.5)
            durations = np.concatenate([durations, extra])

    makespan = _list_schedule(durations, slots)
    real = durations[:n_tasks]
    p50, p95 = _median_quantile_1d(real, 0.95)
    return (float(makespan), float(real.sum() / real.size), p50, p95,
            float(real.max()))


def _list_schedule_heap(durations: np.ndarray, slots: int) -> float:
    """Greedy earliest-available-slot assignment (what Spark's FIFO does).

    Reference implementation; kept as the oracle for the equivalence
    property test of :func:`_list_schedule`.
    """
    n = len(durations)
    if n <= slots:
        return float(durations.max())
    # [0.0] * slots is already a valid heap; peek + heapreplace is one C
    # call per task instead of a pop/push pair, and iterating the
    # ``tolist()`` floats skips per-element numpy-scalar unboxing.  The
    # slot multiset evolves identically either way (each step removes
    # the minimum value and inserts minimum + d), so the final makespan
    # is bit-identical.
    heap = [0.0] * slots
    heapreplace = heapq.heapreplace
    for d in durations.tolist():
        heapreplace(heap, heap[0] + d)
    return max(heap)


#: below this many slots the numpy chunk bookkeeping costs more than the
#: plain heap loop it replaces.  The crossover is measured by the
#: scheduler microbench (BENCH_throughput.json) on durations drawn from
#: the production noise model (``_sample_durations`` at the default
#: calibration): parity at 48 slots, vectorized ~1.35x/2.8x/5x faster
#: at 64/128/256, heap ~1.4x faster at 32.  Wider duration spreads
#: shorten the safe prefix and move the crossover up — the microbench
#: asserts the chosen path is never >1.5x slower than the rejected one.
_MIN_VECTOR_SLOTS = 48

#: chunks shorter than this are processed with the heap (numpy call
#: overhead dominates tiny chunks)
_MIN_CHUNK = 8


def _list_schedule(durations: np.ndarray, slots: int) -> float:
    """Exact chunked/vectorized equivalent of :func:`_list_schedule_heap`.

    The greedy schedule pops the minimum slot time once per task — a
    Python-level loop that dominates simulator time at high
    ``spark.default.parallelism``.  This version assigns tasks in chunks:
    with slot times sorted ascending, the next ``m`` pops are exactly
    ``times[0..m-1]`` (in order) as long as no finish pushed during the
    chunk undercuts a later pop, i.e. while
    ``times[j] <= min_{i<j}(times[i] + d_i)``.  The longest such prefix
    is found with one vectorized prefix-min, the whole chunk is assigned
    with one vectorized add, and the slot array is re-sorted.  Stragglers
    merely shorten the chunk (their slot stays un-popped at the tail);
    degenerate chunks fall back to the heap loop, so the result is
    bit-identical to the reference for every input.
    """
    n = len(durations)
    if n <= slots:
        return float(durations.max())
    durations = np.asarray(durations, dtype=float)
    if slots < _MIN_VECTOR_SLOTS:
        return _list_schedule_heap(durations, slots)
    times = np.zeros(slots)  # slot available-times, kept sorted ascending
    pos = 0
    # Fast-rounds prologue: while every chunk is a full round of exactly
    # ``slots`` tasks and the safety test passes, the per-round work is
    # just an in-place add and re-sort.  All round minima come from one
    # (rounds, slots) reduction, and the reshape pins chunk boundaries —
    # the first unsafe round breaks to the general loop below, which
    # re-derives boundaries from ``pos`` and never returns here.
    rounds = n // slots
    if rounds >= 2:
        mat = durations[: rounds * slots].reshape(rounds, slots)
        mins = mat.min(axis=1).tolist()
        last = slots - 1
        r = 0
        while r < rounds and times[last] - times[0] <= mins[r]:
            np.add(times, mat[r], out=times)
            times.sort()
            r += 1
        pos = r * slots
    while pos < n:
        k = min(slots, n - pos)
        chunk = durations[pos:pos + k]
        cmin = chunk.min()
        # Fast test first: when the chunk's shortest task covers the slot
        # spread, every pop is safe (times[j] <= times[0] + min d <=
        # times[i] + d_i for all i < j) — the common case for the tight
        # task-noise distributions the simulator draws.
        if times[k - 1] - times[0] <= cmin:
            m = k
        else:
            # Slots at or below times[0] + cmin can only be popped before
            # any in-chunk finish lands (every push is >= times[0] + cmin),
            # so the first such-prefix pops are exactly times[:m] in order.
            # Straggler-inflated slots sit past the cut and stay parked —
            # one binary search instead of a prefix-min scan per chunk.
            m = min(int(np.searchsorted(times, times[0] + cmin, "right")), k)
        if m >= _MIN_CHUNK:
            # The m popped slots finish at times[:m] + chunk[:m]; adding
            # in place and re-sorting realizes the new multiset.
            np.add(times[:m], chunk[:m], out=times[:m])
            times.sort()
        else:
            m = min(k, _MIN_CHUNK)
            heap = times.tolist()
            heapq.heapify(heap)
            heapreplace = heapq.heapreplace
            for d in chunk[:m].tolist():
                heapreplace(heap, heap[0] + d)
            times = np.sort(heap)
        pos += m
    return float(times[-1])


def _median_1d(x: np.ndarray) -> float:
    """``float(np.median(x))`` for 1-D float arrays, minus the dispatch.

    ``np.median`` spends most of its time in ``_ureduce`` axis machinery
    — dozens of microseconds per call on the tiny per-stage arrays the
    simulator reduces.  Selecting the middle element(s) with a direct
    ``np.partition`` is bit-identical (numpy's own implementation does
    exactly this before averaging) at a fraction of the overhead.
    """
    n = x.size
    h = n // 2
    part = x.copy()
    if n % 2:
        part.partition(h)
        return float(part[h])
    part.partition((h - 1, h))
    return float((part[h - 1] + part[h]) / 2.0)


def _median_quantile_1d(x: np.ndarray, q: float) -> tuple[float, float]:
    """``(np.median(x), np.quantile(x, q))`` from one shared partition.

    ``np.partition`` with several kth indices places the sorted-order
    element at every requested position, so the median and quantile read
    the exact values the separate calls would — one array copy and one
    selection pass instead of two.
    """
    n = x.size
    h = n // 2
    vi = q * (n - 1)
    at_end = vi >= n - 1
    if at_end:
        lo = n - 1
        q_kth = (n - 1,)
    else:
        lo = math.floor(vi)
        q_kth = (lo, lo + 1)
    part = x.copy()
    if n % 2:
        part.partition((h,) + q_kth)
        median = float(part[h])
    else:
        part.partition((h - 1, h) + q_kth)
        median = float((part[h - 1] + part[h]) / 2.0)
    if at_end:
        return median, float(part[n - 1])
    g = vi - lo
    a = part[lo]
    b = part[lo + 1]
    diff = b - a
    if g >= 0.5:
        return median, float(b - diff * (1 - g))
    return median, float(a + diff * g)


def _median_quantile_rows(x: np.ndarray, q: float
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise :func:`_median_quantile_1d` as ``(part, median, quantile)``.

    ``part`` is ``x`` sorted along each row, so it holds every order
    statistic the caller reads (its last column is the row max).  A full
    sort puts at each kth position the value ``np.partition`` puts there,
    and at the widths the simulator schedules one sort of the matrix
    costs less than a partition around several kth positions.  The
    median and quantile use the 1-D kernel's lerp arithmetic on every
    row.
    """
    n = x.shape[1]
    h = n // 2
    vi = q * (n - 1)
    at_end = vi >= n - 1
    lo = n - 1 if at_end else math.floor(vi)
    part = np.sort(x, axis=1)
    if n % 2:
        median = part[:, h]
    else:
        median = (part[:, h - 1] + part[:, h]) / 2.0
    if at_end:
        return part, median, part[:, n - 1]
    g = vi - lo
    a = part[:, lo]
    b = part[:, lo + 1]
    diff = b - a
    return part, median, (b - diff * (1 - g) if g >= 0.5 else a + diff * g)


def _schedule_rows(durations: np.ndarray, slots: int,
                   speculation: tuple[float, float] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
    """Row-wise :func:`_schedule_1d` from the sampled ``(rows, tasks)``
    duration matrix.

    Returns per-row ``(makespan, mean, p50, p95, max)``, each equal bit
    for bit to :func:`_schedule_1d` on that row's stream:

    * with ``speculation`` (the configuration's ``(multiplier,
      quantile)``, applied from 4 tasks up as in the scalar path), each
      row's straggler tail is clamped as :func:`_schedule_1d` clamps it.
      The row medians and cutoffs come from one row sort
      (:func:`_median_quantile_rows`), and the candidates above
      ``max(threshold, cutoff)`` are clamped to ``threshold + median``.
      A copy runs half the median of its clamped row.  Each row's copies
      are appended as extra columns, padded with ``0.0`` to the longest
      row's count: adding ``0.0`` to a slot leaves its time unchanged,
      so each row's slot multiset evolves exactly as its own heap's;
    * the makespan is the heap's greedy multiset step run on every row
      at once — each later task adds its duration to its row's minimum
      slot (``argmin`` picks one of equal minima, and which one cannot
      change the multiset);
    * the mean is a row sum of the (clamped) tasks, the same pairwise
      reduction a 1-D sum runs;
    * median, p95 and max come from one row sort of the (clamped)
      tasks, which also gives the copies their median.

    Every step reads only its own row, so a row's results do not depend
    on which rows share the matrix: the batch simulator stacks the rows
    of every stage with the same task count, slot count and speculation
    setting into one call.
    """
    m, n = durations.shape
    copies = 0
    if speculation is not None and n >= 4:
        multiplier, quantile = speculation
        _, median, cutoff = _median_quantile_rows(durations, quantile)
        threshold = median * max(1.01, multiplier)
        candidates = durations > np.maximum(threshold, cutoff)[:, None]
        counts = np.count_nonzero(candidates, axis=1)
        copies = int(counts.max())
        if copies:
            durations = np.where(
                candidates,
                np.minimum(durations, (threshold + median)[:, None]),
                durations,
            )
    part, p50, p95 = _median_quantile_rows(durations, 0.95)
    tasks = durations
    if copies:
        padded = np.arange(copies) < counts[:, None]
        tasks = np.concatenate(
            [durations, np.where(padded, (p50 * 0.5)[:, None], 0.0)], axis=1,
        )
    if tasks.shape[1] <= slots:
        makespan = tasks.max(axis=1)
    else:
        # The first ``slots`` tasks each take an idle slot: 0.0 + d == d.
        times = tasks[:, :slots].copy()
        flat = times.reshape(-1)
        offsets = np.arange(0, m * slots, slots)
        for column in tasks[:, slots:].T.copy():
            pos = times.argmin(axis=1)
            pos += offsets
            flat[pos] += column
        makespan = times.max(axis=1)
    mean = durations.sum(axis=1) / n
    return makespan, mean, p50, p95, part[:, n - 1]
