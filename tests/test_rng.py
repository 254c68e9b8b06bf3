"""Substream addressing tests, and the standard-library copy of the stream."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pivotboot import weights
from pivotboot.stream import Stream, _seed_state, substream


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


_indices = st.lists(st.one_of(st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1)),
                    max_size=4).map(tuple)


class TestStandardLibraryStream:
    """``Stream`` draws what numpy draws at the same address, to the bit."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(-2**63, 2**63 - 1), indices=_indices,
           n=st.integers(1, 2**16), sizes=st.lists(st.integers(1, 300), min_size=2, max_size=4))
    @example(seed=0, indices=(), n=1, sizes=[3, 4])
    @example(seed=-1, indices=(0, 2**32 - 1), n=2, sizes=[1, 1, 1])
    @example(seed=2**63 - 1, indices=(2**32 - 1,) * 4, n=2**15 + 1, sizes=[5, 2, 7])
    @example(seed=-2**63, indices=(0,), n=2**16, sizes=[3, 3, 2, 1])  # full range: no rejection
    def test_consecutive_draws_equal_numpy(self, seed, indices, n, sizes):
        # a call that reads an odd number of 32-bit words leaves the upper half
        # of a 64-bit output, which the next call reads first
        ours, reference = Stream(seed, "p", *indices), substream(seed, "p", *indices)
        for size in sizes:
            expected = reference.integers(0, n, (1, size), dtype=np.uint16).ravel().tolist()
            assert ours.integers16(n, size) == expected

    @settings(max_examples=100, deadline=None)
    @given(entropy=st.sampled_from((32, 64, 96, 128)).flatmap(
        lambda bits: st.integers(0, 2**bits - 1)), spawn_key=_indices)
    @example(entropy=0, spawn_key=(5,))
    @example(entropy=2**128 - 1, spawn_key=())
    def test_seed_state_equals_numpy(self, entropy, spawn_key):
        # an entropy of fewer than four 32-bit words is padded before a spawn key
        expected = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        assert _seed_state(entropy, spawn_key) == expected.generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("n, m, in_python", [
        (3, 24, True), (3, 25, False),  # m = 8n, 8n + 1
        (2**16, 7, True), (2**16 + 1, 7, False),  # 16-bit indices, then 64-bit ones
        (10_000, weights._PYTHON_INDICES, True), (10_000, weights._PYTHON_INDICES + 1, False),
    ])
    def test_rows_equal_numpy_across_each_hand_over(self, n, m, in_python):
        # two rows, as the CLI's redraw loop draws them from one stream
        ours, reference = Stream(9, "p", 1), substream(9, "p", 1)
        for _ in range(2):
            row = weights.draw_multinomial_weights(n, m, ours)
            assert row == weights.draw_multinomial_weights(n, m, reference)
        # a stream that has drawn cannot hand over, one that has handed over cannot draw
        with pytest.raises(RuntimeError):
            ours.hand_over() if in_python else ours.integers16(2, 1)

    def test_address_validation(self):
        for address in ((1, "p", -1), (1, "p", 2**32), (1, "p", 1, 2, 3, 4, 5), (2**63, "p"),
                        (-2**63 - 1, "p")):
            with pytest.raises(ValueError):
                Stream(*address)
        Stream(2**63 - 1, "p", 2**32 - 1)

    def test_hands_over_only_before_drawing(self):
        stream = Stream(1, "p")
        stream.integers16(5, 3)
        with pytest.raises(RuntimeError):
            stream.hand_over()
        handed = Stream(1, "p")
        assert handed.hand_over() is handed.hand_over()
        with pytest.raises(RuntimeError):
            handed.integers16(5, 3)
