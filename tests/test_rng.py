"""Substream addressing tests."""

import numpy as np
import pytest

from pivotboot.rng import substream


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
