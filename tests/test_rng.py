"""Substream addressing tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pivotboot.rng import restreamer, substream


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "p", 1, 2).standard_normal(5)
        b = substream(7, "p", 1, 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_addresses_differ(self):
        base = substream(7, "p", 1, 2).standard_normal(5)
        for other in (substream(8, "p", 1, 2), substream(7, "q", 1, 2),
                      substream(7, "p", 2, 1), substream(7, "p", 1, 3)):
            assert not np.array_equal(base, other.standard_normal(5))

    def test_long_streams_do_not_collide_with_neighbours(self):
        g = substream(1, "p", 0, 0)
        g.standard_normal(200_000)
        tail = g.standard_normal(8)
        head = substream(1, "p", 0, 1).standard_normal(8)
        assert not np.array_equal(tail, head)

    def test_four_indices_supported(self):
        a = substream(1, "p", 1, 2, 3, 4).random(3)
        b = substream(1, "p", 1, 2, 3, 5).random(3)
        assert not np.array_equal(a, b)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            substream(1, "p", -1)
        with pytest.raises(ValueError):
            substream(1, "p", 2**32)
        with pytest.raises(ValueError):
            substream(1, "p", 1, 2, 3, 4, 5)

    def test_seed_validation(self):
        for seed in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                substream(seed, "p")
        substream(2**63 - 1, "p")
        substream(-2**63, "p")


seeds = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 2**63 - 1, -2**63]))
addresses = st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple)
DRAWS = ("random", "standard_normal", "multinomial", "int32")


def draw(rng: np.random.Generator, how: str) -> np.ndarray:
    """Three values of one kind.  Three 32-bit integers use one and a half
    64-bit outputs, so they leave a spare 32-bit half behind."""
    if how == "random":
        return rng.random(3)
    if how == "standard_normal":
        return rng.standard_normal(3)
    if how == "multinomial":
        return rng.multinomial(7, [0.2] * 5, size=3)
    return rng.integers(0, 2**31 - 1, size=3, dtype=np.int32)


class TestRestreamer:
    """One re-addressed generator draws what a fresh substream draws."""

    @given(seed=seeds, purpose=st.text(max_size=12),
           visits=st.lists(st.tuples(addresses, st.lists(st.sampled_from(DRAWS), min_size=1,
                                                           max_size=4)),
                           min_size=1, max_size=6))
    @example(seed=2024, purpose="layout",
             visits=[((), ["int32"]), ((1, 2, 3, 4), ["int32", "random"]), ((1,), ["random"])])
    @settings(max_examples=200, deadline=None)
    def test_matches_fresh_substream(self, seed, purpose, visits):
        at = restreamer(seed, purpose)
        for indices, hows in visits:
            reused, fresh = at(*indices), substream(seed, purpose, *indices)
            for how in hows:
                assert np.array_equal(draw(reused, how), draw(fresh, how))

    def test_returns_one_generator(self):
        at = restreamer(7, "p")
        assert at(1) is at(2, 3)

    def test_index_validation(self):
        at = restreamer(1, "p")
        with pytest.raises(ValueError):
            at(-1)
        with pytest.raises(ValueError):
            at(2**32)
        with pytest.raises(ValueError):
            at(1, 2, 3, 4, 5)

    def test_seed_validation(self):
        for seed in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                restreamer(seed, "p")
