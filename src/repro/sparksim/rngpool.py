"""Pooled, batch-seeded per-candidate noise generators.

The batch fast path owes every candidate its own
``np.random.default_rng(seed)`` stream — that is the bit-identity
contract with the scalar path.  Constructing one costs ~8-12 µs,
dominated by ``SeedSequence`` entropy mixing and ``PCG64.__init__``: at
batch-path speeds that is a measurable slice of every evaluation.

This module reproduces the *exact* ``default_rng(seed)`` initial state
for a whole batch of seeds in a handful of vectorized uint32 passes:

* ``SeedSequence`` mixes the seed's 32-bit words into a 4-word entropy
  pool with a Weyl-style multiply/xor hash whose evolving hash constant
  is *seed-independent* — so the constants are tabled once, at import,
  and N seeds mix in lock-step: the pool is one ``(4, N)`` uint32
  array, each mixing source updates its three destinations in one
  ``(3, N)`` step, and the eight output words are one ``(8, N)`` step;
* PCG64's ``srandom`` folds the four output words into its 128-bit
  ``(state, inc)`` pair — two big-int operations per candidate;
* the result is installed into pooled ``PCG64`` bit generators via the
  ``state`` setter (~1 µs), skipping the expensive constructors.

The replicated arithmetic is verified against ``np.random.PCG64`` at
import time for a spread of seeds; if the installed numpy ever changes
its seeding, the pool transparently falls back to plain ``default_rng``
construction, so the fast path can never drift from the contract
silently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["GeneratorPool", "FAST_SEEDING"]

#: PCG64 (XSL-RR 128/64) LCG multiplier — fixed by the PCG reference
#: implementation numpy vendors.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# SeedSequence hash/mix constants (numpy _bit_generator.pyx).  The
# evolving hash constants are stepped as masked Python ints (numpy scalar
# uint32 multiplies warn on overflow, array ops wrap silently).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MASK32 = 0xFFFFFFFF
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int,
                    calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(xor, multiply)`` constants of ``calls`` successive hashes,
    as ``(calls, 1)`` uint32 columns.

    Hash call ``i`` xors its value with the evolving constant, steps the
    constant, then multiplies by the stepped value: it reads constants
    ``i`` and ``i + 1`` of the sequence ``init * mult**k``.
    """
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, None]
    return table[:-1], table[1:]


#: the pool's hash calls: 4 to fill it, then 3 per mixing source
_XOR_A, _MUL_A = _hash_constants(_INIT_A, _MULT_A,
                                 _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
#: the output hash calls: 8 uint32 words for PCG64's four uint64 words
_XOR_B, _MUL_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
#: the pool words each mixing source updates, in SeedSequence's order
_MIX_DESTINATIONS = [
    np.array([dst for dst in range(_POOL_SIZE) if dst != src], dtype=np.intp)
    for src in range(_POOL_SIZE)
]
#: the pool word each output word hashes: the pool, cycled twice
_OUTPUT_SOURCES = np.arange(2 * _POOL_SIZE) % _POOL_SIZE

#: seeds above this need >2 entropy words; they take the fallback path
_MAX_FAST_SEED = 2**64


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray
          ) -> np.ndarray:
    """SeedSequence's ``hashmix`` with given constants, element-wise."""
    values = values ^ xor
    values *= mult
    values ^= values >> _XSHIFT
    return values


def _seed_words_vec(seeds: Sequence[int]) -> np.ndarray:
    """The four PCG64 seeding words of each seed, as a ``(4, N)`` uint64
    array (column ``i`` belongs to ``seeds[i]``).

    Vectorized replica of ``SeedSequence(seed).generate_state(4,
    np.uint64)`` for seeds in ``[0, 2**64)``.  A seed's entropy is its
    little-endian 32-bit words; positions past the entropy length hash
    ``0``, so zero-padding to the 4-word pool size is exact.  The hash
    constants depend only on call order, never on seed values, so they
    are tabled at import and every step runs on all seeds at once:
    the pool is one ``(4, N)`` uint32 array, filled in one step.  Each
    mixing source's three hashes and three destination updates run as
    one ``(3, N)`` step; they read the source and their own destination,
    and none of them writes the source.  The 8 output words are one
    ``(8, N)`` step.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, s.shape[0]), dtype=np.uint32)
    entropy[0] = s & np.uint64(_MASK32)
    entropy[1] = s >> np.uint64(32)
    pool = _hash(entropy, _XOR_A[:_POOL_SIZE], _MUL_A[:_POOL_SIZE])
    for src, dst in enumerate(_MIX_DESTINATIONS):
        k = _POOL_SIZE + 3 * src
        hashed = _hash(pool[src], _XOR_A[k:k + 3], _MUL_A[k:k + 3])
        hashed *= _MIX_R
        mixed = pool[dst]            # a copy: fancy indexing
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    words32 = _hash(pool[_OUTPUT_SOURCES], _XOR_B, _MUL_B).astype(np.uint64)
    # uint64 output words are little-endian pairs of uint32 draws
    return words32[0::2] | (words32[1::2] << np.uint64(32))


def _srandom(w0: int, w1: int, w2: int, w3: int) -> dict:
    """PCG64 ``(state, inc)`` from its four seeding words.

    Replicates ``pcg_setseq_128_srandom_r``: ``inc = (initseq << 1) | 1``
    and the state is stepped twice around adding ``initstate``.
    """
    initstate = (w0 << 64) | w1
    initseq = (w2 << 64) | w3
    inc = ((initseq << 1) | 1) & _MASK128
    state = inc  # srandom: state = 0; step() -> 0 * MULT + inc
    state = (state + initstate) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128  # second step()
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _pcg64_state_dict(seed: int) -> dict:
    """The ``PCG64(SeedSequence(seed)).state`` dict, computed directly."""
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    return _srandom(int(words[0]), int(words[1]), int(words[2]),
                    int(words[3]))


def _verify_fast_seeding() -> bool:
    """True when the replicated seeding matches this numpy's ``PCG64``."""
    try:
        probes = [0, 1, 12345, 2**31 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        words = _seed_words_vec(probes).T.tolist()
        for seed, seed_words in zip(probes, words):
            vec_state = _srandom(*seed_words)
            if np.random.PCG64(seed).state != vec_state:
                return False
            if _pcg64_state_dict(seed) != vec_state:
                return False
    except Exception:
        return False
    return True


#: whether the arithmetic shortcut is exact on the installed numpy
FAST_SEEDING: bool = _verify_fast_seeding()


class GeneratorPool:
    """A reusable pool of ``np.random.Generator`` objects.

    ``generators(seeds)`` returns one generator per seed, each in the
    exact state ``np.random.default_rng(seed)`` would start in.  The
    underlying ``PCG64`` bit generators are pooled and re-seeded via the
    ``state`` setter from one vectorized seeding sweep
    (:func:`_seed_words_vec`), costing ~3 µs per candidate instead of
    ~9 µs.  Generators are only valid until the next :meth:`generators`
    call — the batch path consumes them within one ``run_batch`` sweep,
    which is single-threaded by construction.
    """

    def __init__(self) -> None:
        self._bit_gens: list[np.random.PCG64] = []
        self._gens: list[np.random.Generator] = []

    def generators(self, seeds: Sequence[int]) -> list[np.random.Generator]:
        if not FAST_SEEDING or any(
            not (0 <= seed < _MAX_FAST_SEED) for seed in seeds
        ):
            return [np.random.default_rng(seed) for seed in seeds]
        n = len(seeds)
        while len(self._gens) < n:
            # placeholder state only: overwritten via the state setter
            # below before any draw
            bit_rng = np.random.PCG64(0)
            self._bit_gens.append(bit_rng)
            self._gens.append(np.random.Generator(bit_rng))
        for bit_rng, seed_words in zip(self._bit_gens,
                                       _seed_words_vec(seeds).T.tolist()):
            bit_rng.state = _srandom(*seed_words)
        return self._gens[:n]
