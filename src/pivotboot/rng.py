"""Counter-based, splittable random streams.

Every random draw in this package comes from a stream addressed by
``(master seed, purpose tag, *indices)``.  Streams are independent Philox
generators, each built directly from its 128-bit key and 256-bit counter:
the key is the first 16 bytes of sha256(seed as little-endian int64 ||
purpose), and the stream indices are placed in the high words of the
counter.  Two streams with different addresses never overlap (a single
stream would have to consume 2^128 blocks to run into its neighbour), and
results are identical no matter how many worker threads consume the
streams or in which order.

Because the counter is the address, one Philox can also be moved from
stream to stream by assigning its key, counter and empty draw buffer:
``restreamer`` does that for loops that use each stream for one replicate
only (the table kernels re-address one generator per outer cell, the
harness loops one per worker thread), and draws the same values as
``substream`` at every address.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Callable

import numpy as np

__all__ = ["substream"]

# Counter words 0..1 are left for the stream's own draw counter; words 2..3
# hold up to four 32-bit user indices (two per word, high word first).
_MAX_INDICES = 4


# Philox takes its key and counter fastest as uint64 word arrays (low word
# first); from Python ints it converts word by word, about a third slower.
@functools.cache
def _philox_key(seed: int, purpose: str) -> np.ndarray:
    """The 128-bit key as two uint64 words, read-only (shared by the cache)."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")
    digest = hashlib.sha256(struct.pack("<q", seed) + purpose.encode("utf-8")).digest()
    return np.frombuffer(digest[:16], dtype="<u8")


def _counter(indices: tuple[int, ...]) -> list[int]:
    """The 256-bit counter of a stream address, as four words (low first)."""
    if len(indices) > _MAX_INDICES:
        raise ValueError("too many stream indices")
    counter = [0, 0, 0, 0]
    for j, ix in enumerate(indices):
        if not 0 <= ix < 2**32:
            raise ValueError("stream indices must lie in [0, 2**32)")
        word, half = divmod(j, 2)
        counter[3 - word] |= ix << (32 * half)
    return counter


def substream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, purpose, *indices)``.

    Up to four indices, each in ``[0, 2**32)``.  Within one purpose tag,
    distinct index tuples of equal length address distinct, non-overlapping
    streams.
    """
    bit_generator = np.random.Philox(counter=np.array(_counter(indices), dtype=np.uint64),
                                     key=_philox_key(seed, purpose))
    return np.random.Generator(bit_generator)


def restreamer(seed: int, purpose: str) -> Callable[..., np.random.Generator]:
    """Return ``at``: ``at(*indices)`` draws what ``substream(seed, purpose,
    *indices)`` draws, without building a generator per address.

    ``at`` re-addresses one Philox and returns one and the same
    ``Generator`` on every call, so a stream it returned is valid only
    until the next call; each worker thread needs its own ``at``.
    """
    key = _philox_key(seed, purpose)
    bit_generator = np.random.Philox(key=key)
    generator = np.random.Generator(bit_generator)
    # A new Philox's state: the counter, an empty buffer of 64-bit outputs
    # and no spare 32-bit half.  Python ints assign faster than uint64 words.
    state = {"bit_generator": "Philox", "state": {"counter": None, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def at(*indices: int) -> np.random.Generator:
        state["state"]["counter"] = _counter(indices)
        bit_generator.state = state
        return generator

    return at
