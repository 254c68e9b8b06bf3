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

The unit of work that owns a stream is the caller's choice.  The simulation
harnesses address one stream per table outer cell (stream layout 2) and one
per block of harness replicates (layout 3), and draw all of that unit's
variates from it in order: the base variates of all its replicates in one
call, then their weights.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["check_seed", "substream"]

# Counter words 0..1 are left for the stream's own draw counter; words 2..3
# hold up to four 32-bit user indices (two per word, high word first).
_MAX_INDICES = 4


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` fits the int64 that keys the streams."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")


def _philox_key(seed: int, purpose: str) -> np.ndarray:
    """The 128-bit key as two uint64 words (Philox takes these faster than an int)."""
    check_seed(seed)
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
