"""GeneratorPool: batch-seeded generators must equal ``default_rng``."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sparksim import rngpool
from repro.sparksim.rngpool import FAST_SEEDING, GeneratorPool

#: one- and two-word seeds at the word boundaries, and the largest
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


def _drain(gen: np.random.Generator) -> tuple:
    """A draw sequence shaped like one batch candidate's consumption."""
    return (
        gen.lognormal(mean=0.0, sigma=0.25, size=7).tolist(),
        gen.random(7).tolist(),
        gen.exponential(scale=0.5, size=3).tolist(),
        float(gen.lognormal(mean=-0.01, sigma=0.14)),
    )


class TestFastSeeding:
    def test_verified_on_this_numpy(self):
        # The arithmetic replica must hold on the pinned toolchain; if
        # numpy ever changes its seeding this becomes the loud signal
        # that the pool silently fell back (still correct, just slower).
        assert FAST_SEEDING

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_state_matches_pcg64(self, seed):
        cols = [w.tolist() for w in rngpool._seed_words_vec([seed])]
        fast = rngpool._srandom(cols[0][0], cols[1][0], cols[2][0],
                                cols[3][0])
        assert fast == np.random.PCG64(seed).state

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                              st.integers(min_value=0, max_value=2**64 - 1)),
                    min_size=1, max_size=64))
    @example([0, 2**32 - 1, 2**32, 2**64 - 1, 0, 7, 2**64 - 1, 7])
    def test_many_seeds_per_call_match_pcg64(self, seeds):
        # One call seeds a whole batch: every column must be its own
        # seed's state, so a step that mixes columns up fails here.
        words = rngpool._seed_words_vec(seeds)
        assert words.shape == (4, len(seeds))
        for seed, column in zip(seeds, words.T.tolist()):
            assert rngpool._srandom(*column) == np.random.PCG64(seed).state

    def test_pool_draws_equal_default_rng(self):
        seeds = [0, 1, 17, 2**31, 2**63 - 1, 2**64 - 1, 42, 42]
        pool = GeneratorPool()
        got = [_drain(g) for g in pool.generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want

    def test_pool_is_reusable_across_batches(self):
        pool = GeneratorPool()
        for batch in ([3, 5, 7], [11], [13, 3, 5, 7, 999]):
            got = [_drain(g) for g in pool.generators(batch)]
            want = [_drain(np.random.default_rng(s)) for s in batch]
            assert got == want

    def test_out_of_range_seeds_fall_back(self):
        seeds = [2**64, 2**70 + 123, 5]
        got = [_drain(g) for g in GeneratorPool().generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want

    def test_fallback_when_fast_seeding_disabled(self, monkeypatch):
        monkeypatch.setattr(rngpool, "FAST_SEEDING", False)
        seeds = [1, 2, 3]
        got = [_drain(g) for g in GeneratorPool().generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want
