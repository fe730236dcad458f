"""Zero-copy candidate shipping over ``multiprocessing.shared_memory``.

The process-pool executor's per-chunk pickles are dominated by the
candidate :class:`~repro.config.space.Configuration` dicts — a few
dozen key/value pairs serialized per request, per chunk.  This module
replaces them with one columnar shared-memory segment per batch:

* :func:`encode_configs` lays a ``Configuration`` batch out as
  struct-of-arrays columns — one typed array (int64 / float64 / bool)
  or string-code table per parameter — plus a small pickled header with
  the column directory, all inside a single
  :class:`~multiprocessing.shared_memory.SharedMemory` segment;
* :func:`decode_configs` reconstructs exact ``Configuration`` objects
  for any index subset, reading columns as zero-copy numpy views of the
  segment (only the requested rows are materialized);
* :func:`write_payload` / :func:`read_payload` move chunk results back
  through worker-created segments, so the future result crossing the
  pipe is just a ``(name, size)`` pair.

Exactness contract: ``decode_configs(encode_configs(cfgs)) == cfgs``
field-for-field, including value *types* (bools stay ``bool``, ints
``int``, categoricals ``str``).  Columns that cannot be expressed as a
typed array (mixed types, out-of-range ints, non-scalar values) fall
back to a pickled column inside the same segment — layout degrades,
correctness never does.

Segment lifecycle: names carry the :data:`PREFIX` plus the creating
pid and a monotonic counter, so they are unique per process and
greppable in ``/dev/shm``.  Creators unlink; attachers only close.
Worker-created result segments are unregistered from the worker's
``resource_tracker`` so the *parent* (which alone knows when the bytes
were consumed) owns the unlink — see
:class:`repro.engine.executors.ParallelExecutor` for the bookkeeping
that guarantees no segment outlives its batch, even on retry/rebuild
paths.
"""

from __future__ import annotations

import itertools
import os
import pickle
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..config.space import Configuration

__all__ = [
    "PREFIX",
    "encode_configs",
    "decode_configs",
    "write_payload",
    "read_payload",
    "unlink_segment",
]

#: every segment this package creates starts with this (leak checks grep
#: ``/dev/shm`` for it)
PREFIX = "reprosim-"

_COUNTER = itertools.count()

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _segment_name(tag: str) -> str:
    return f"{PREFIX}{os.getpid()}-{tag}{next(_COUNTER)}"


def _new_segment(size: int, tag: str) -> shared_memory.SharedMemory:
    # pid + monotonic counter makes collisions impossible within a
    # process tree; retry anyway in case of a stale same-name leftover.
    while True:
        try:
            return shared_memory.SharedMemory(
                create=True, size=max(1, size), name=_segment_name(tag),
            )
        except FileExistsError:
            continue


def _column(values: list) -> tuple[str, object]:
    """Classify one parameter column: ``(kind, payload)``.

    Kinds: ``"bool"``/``"int"``/``"float"`` (numpy array payload),
    ``"str"`` (``(codes, table)``), ``"pickle"`` (raw value list).
    ``bool`` is checked before ``int`` — it is a subclass.
    """
    first = values[0]
    if isinstance(first, bool):
        if all(isinstance(v, bool) for v in values):
            return "bool", np.array(values, dtype=np.uint8)
    elif isinstance(first, int):
        if all(
            type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in values
        ):
            return "int", np.array(values, dtype=np.int64)
    elif isinstance(first, float):
        if all(type(v) is float for v in values):
            return "float", np.array(values, dtype=np.float64)
    elif isinstance(first, str):
        if all(type(v) is str for v in values):
            table: dict[str, int] = {}
            codes = np.empty(len(values), dtype=np.int32)
            for i, v in enumerate(values):
                codes[i] = table.setdefault(v, len(table))
            return "str", (codes, list(table))
    return "pickle", values


def encode_configs(configs) -> shared_memory.SharedMemory:
    """Lay ``configs`` out columnar in a fresh shared-memory segment.

    The caller owns the segment: ``close()`` + ``unlink()`` when every
    consumer is done (:func:`unlink_segment`).  Requires a non-empty
    batch with a uniform key set (engine batches always are — each
    request carries a fully-resolved config); heterogeneous batches
    raise ``ValueError`` and the caller falls back to pickled dispatch.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("cannot encode an empty batch")
    keys = list(configs[0].keys())
    key_set = set(keys)
    if any(set(c.keys()) != key_set for c in configs[1:]):
        raise ValueError("configs do not share one key set")

    columns = []                 # (key, kind, meta, array-or-None)
    arrays: list[np.ndarray] = []
    for key in keys:
        kind, payload = _column([c[key] for c in configs])
        if kind == "str":
            codes, table = payload
            columns.append((key, kind, table, codes))
            arrays.append(codes)
        elif kind == "pickle":
            columns.append((key, kind, payload, None))
        else:
            columns.append((key, kind, None, payload))
            arrays.append(payload)

    # Header: n rows + per-column (key, kind, meta, dtype, offset, nbytes).
    # Offsets are *relative to the data base* — the first 8-byte boundary
    # after the header — so the directory's own pickled size (which the
    # offsets must not depend on) stays out of the arithmetic.  Layout:
    # [8B header_len][header][pad][column arrays, 8-byte aligned].
    directory = []
    rel = 0
    i_arr = 0
    for key, kind, meta, arr in columns:
        if arr is None:
            directory.append((key, kind, meta, None, 0, 0))
        else:
            directory.append((key, kind, meta, arr.dtype.str, rel, arr.nbytes))
            rel = (rel + arr.nbytes + 7) & ~7
            i_arr += 1
    header = pickle.dumps((len(configs), directory), protocol=5)
    data_base = (8 + len(header) + 7) & ~7

    shm = _new_segment(data_base + rel, "q")
    try:
        buf = shm.buf
        buf[0:8] = len(header).to_bytes(8, "little")
        buf[8:8 + len(header)] = header
        i_arr = 0
        for key, kind, meta, dtype, off, nbytes in directory:
            if dtype is None:
                continue
            arr = arrays[i_arr]
            i_arr += 1
            np.frombuffer(buf, dtype=arr.dtype, count=arr.size,
                          offset=data_base + off)[:] = arr
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm


def decode_configs(shm: shared_memory.SharedMemory,
                   indices=None) -> list[Configuration]:
    """Rebuild ``Configuration`` rows from an encoded segment.

    ``indices`` selects a row subset (a chunk); ``None`` decodes all.
    Columns are viewed zero-copy; only the selected rows are unboxed.
    """
    buf = shm.buf
    header_len = int.from_bytes(bytes(buf[0:8]), "little")
    n, directory = pickle.loads(buf[8:8 + header_len])
    data_base = (8 + header_len + 7) & ~7
    rows = list(range(n)) if indices is None else list(indices)

    col_values: list[tuple[str, list]] = []
    for key, kind, meta, dtype, off, nbytes in directory:
        if kind == "pickle":
            col_values.append((key, [meta[i] for i in rows]))
            continue
        arr = np.frombuffer(buf, dtype=np.dtype(dtype),
                            count=nbytes // np.dtype(dtype).itemsize,
                            offset=data_base + off)
        picked = arr[rows].tolist()
        if kind == "bool":
            col_values.append((key, [bool(v) for v in picked]))
        elif kind == "str":
            col_values.append((key, [meta[v] for v in picked]))
        else:                       # int / float: tolist() is exact
            col_values.append((key, picked))
    return [
        Configuration({key: vals[i] for key, vals in col_values})
        for i in range(len(rows))
    ]


def write_payload(obj, name: str | None = None) -> tuple[str, int]:
    """Pickle ``obj`` into a fresh segment; return ``(name, size)``.

    Used by pool workers for chunk results.  The segment is closed here
    and *unregistered from this process's resource tracker*: the parent
    consumes and unlinks it (:func:`read_payload`), and the worker's
    tracker must not unlink it first at worker exit.

    With an explicit ``name`` (parent-assigned), the caller owns
    uniqueness; a same-name leftover can only be a stale segment from a
    recycled pid, so it is unlinked and the create retried once.  The
    explicit name is what makes undelivered results reapable: the
    parent knows every name it assigned even when a broken pool eats
    the result tuple that would have carried it back.
    """
    data = pickle.dumps(obj, protocol=5)
    if name is None:
        shm = _new_segment(len(data), "r")
    else:
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(data)), name=name,
            )
        except FileExistsError:
            unlink_segment(name)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(data)), name=name,
            )
    try:
        shm.buf[0:len(data)] = data
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    shm.close()
    # SharedMemory(create=True) registered the segment with *this*
    # process's resource tracker; ownership moves to the reader.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # staticcheck: ignore[RF004] -- best-effort: unregister touches private stdlib API; failure only costs a spurious tracker warning at worker exit, never correctness
        pass
    return shm.name, len(data)


def read_payload(name: str, size: int, unlink: bool = True):
    """Load the object :func:`write_payload` stored under ``name``."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        return pickle.loads(shm.buf[0:size])
    finally:
        shm.close()
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def unlink_segment(name: str) -> None:
    """Best-effort unlink of a segment by name (already-gone is fine)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
