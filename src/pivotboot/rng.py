"""Seeded, splittable random streams.

Every random draw in this package comes from a stream addressed by
``(master seed, purpose tag, *indices)``.  A stream is a PCG64DXSM generator
(O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation") seeded through numpy's
``SeedSequence``: the entropy is the 128-bit key, the first 16 bytes of
sha256(seed as little-endian int64 || purpose) read as a little-endian
integer, and the stream indices are its ``spawn_key``.  ``SeedSequence``
hashes key and indices into the generator's 128-bit state and increment, so
every address gets its own state, and the same address always the same.
Results are identical no matter how many worker threads consume the streams
or in which order.

Unlike a counter-based generator, this construction does not prove that
two addresses never overlap; it bounds the chance.  Each address starts at
an effectively random point of PCG64DXSM's period of 2**128, so N streams
of at most L draws each overlap anywhere with probability of about
N**2 L / 2**128 (the estimate in numpy's notes on parallel random number
generation): below 2**-24 for a million streams of 2**64 draws.  Those
notes recommend ``SeedSequence``-seeded PCG64DXSM for many parallel streams.

:func:`substream` returns numpy's ``Generator`` on the stream, and is the
only part of this module that loads numpy.  The command line draws from a
standard-library copy of the same stream, :class:`pivotboot.stream.Stream`,
which only it imports.

The unit of work that owns a stream is the caller's choice.  The simulation
harnesses address one stream per table outer cell and one per block of
harness replicates, and draw all of that unit's variates from it in order.
How a report reads its streams is its stream layout, ``RNG_LAYOUT``.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["RNG_LAYOUT", "check_seed", "substream"]

# The stream layout, recorded as rng_layout by every report that reads a
# stream; README says what each layout changed.
RNG_LAYOUT = 7

# Indices per address, each one 32-bit word of the spawn key.
_MAX_INDICES = 4


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` fits the int64 that keys the streams."""
    if not -2**63 <= seed < 2**63:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed}")


def _key(seed: int, purpose: str, indices: tuple[int, ...]) -> int:
    """The 128-bit key of ``(seed, purpose)``, once the address is checked."""
    if len(indices) > _MAX_INDICES:
        raise ValueError("too many stream indices")
    if indices and not (min(indices) >= 0 and max(indices) < 2**32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    check_seed(seed)
    digest = hashlib.sha256(struct.pack("<q", seed) + purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def substream(seed: int, purpose: str, *indices: int):
    """Return numpy's generator addressed by ``(seed, purpose, *indices)``.

    Up to four indices, each in ``[0, 2**32)``.  Distinct addresses seed
    distinct streams.
    """
    import numpy as np

    seed_sequence = np.random.SeedSequence(_key(seed, purpose, indices), spawn_key=indices)
    return np.random.Generator(np.random.PCG64DXSM(seed_sequence))
