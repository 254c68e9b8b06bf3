"""The stream of :func:`pivotboot.rng.substream` in the standard library.

:class:`Stream` copies, bit for bit, numpy's ``SeedSequence``, PCG64DXSM
and the 16-bit bounded integers of ``Generator.integers`` (Lemire, ACM
TOMACS 2019) for any n in [1, 2**16], for the command line's one-row
draws.  It draws only those integers, at about 0.35 us each, so
``weights.draw_multinomial_weights`` counts its indices only for rows of
m <= 8n 16-bit indices (n <= 2**16) with m <= 2**16, and for any other row
hands the stream over to :func:`~pivotboot.rng.substream` at the same
address, before any draw.  Only the command line imports this module; the
table and harness processes never load it.
"""

from __future__ import annotations

from .rng import _key, substream

__all__ = ["Stream"]

_MASK16, _MASK32, _MASK64, _MASK128 = 2**16 - 1, 2**32 - 1, 2**64 - 1, 2**128 - 1
# numpy's SeedSequence: its pool of 32-bit words and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64DXSM: seeding steps the 128-bit LCG with the default multiplier; the
# stream steps it, and its output mixes, with the 64-bit cheap multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_CHEAP_MULTIPLIER = 0xDA942042E4DD58B5


def _seed_state(entropy: int, spawn_key: tuple[int, ...]) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4,
    np.uint64)`` for an entropy of at most 128 bits and a spawn key of
    32-bit words: the pool mixes the entropy's 32-bit words, least
    significant first and at least one, then, when there is a spawn key,
    zeros up to the pool size and the key."""
    words = [entropy & _MASK32]
    while entropy := entropy >> 32:
        words.append(entropy & _MASK32)
    if spawn_key:
        words += [0] * (_POOL_SIZE - len(words)) + list(spawn_key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in words[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(word))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The stream of ``substream(seed, purpose, *indices)`` in the standard
    library.  It draws what ``integers(0, n, size, dtype=np.uint16)`` draws
    there, call after call, and nothing else; :meth:`hand_over` gives
    numpy's generator at the same address, before the first draw."""

    __slots__ = ("_address", "_state", "_increment", "_half", "_drawn", "_generator")

    def __init__(self, seed: int, purpose: str, *indices: int) -> None:
        s_high, s_low, i_high, i_low = _seed_state(_key(seed, purpose, indices), indices)
        self._address = (seed, purpose, *indices)
        self._increment = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self._state = ((self._increment + (s_high << 64 | s_low)) * _PCG_MULTIPLIER
                       + self._increment) & _MASK128
        self._half = None  # the unread upper half of the last 64-bit output
        self._drawn = False
        self._generator = None

    def hand_over(self):
        """numpy's ``Generator`` at this address, the same one on every call;
        ``RuntimeError`` once this stream has drawn."""
        if self._drawn:
            raise RuntimeError("a stream that has drawn cannot hand over")
        if self._generator is None:
            self._generator = substream(*self._address)
        return self._generator

    def _words(self, count: int) -> list[int]:
        """The next ``count`` 32-bit draws: each 64-bit output's lower half,
        then its upper half, which waits for the next call if need be."""
        words = []
        if count and self._half is not None:
            words.append(self._half)
            self._half, count = None, count - 1
        state, increment = self._state, self._increment
        for _ in range((count + 1) // 2):
            high = state >> 64  # DXSM output of the state before the step
            high = (high ^ high >> 32) * _CHEAP_MULTIPLIER & _MASK64
            high = (high ^ high >> 48) * (state & _MASK64 | 1) & _MASK64
            state = (state * _CHEAP_MULTIPLIER + increment) & _MASK128
            words += (high & _MASK32, high >> 32)
        self._state = state
        if count % 2:
            self._half = words.pop()
        return words

    def integers16(self, n: int, size: int) -> list[int]:
        """``integers(0, n, size, dtype=np.uint16)`` for 1 <= n <= 2**16, as
        a list.  Each 32-bit word gives two 16-bit draws, lower half first,
        and the call drops its last word's unused half; Lemire's method
        scales a draw v to v n >> 16 and redraws while v n mod 2**16 is
        below 2**16 mod n.  At n = 1 nothing is drawn."""
        if self._generator is not None:
            raise RuntimeError("this stream has handed over to numpy")
        if not 1 <= n <= 2**16:
            raise ValueError("n must lie in [1, 2**16]")
        self._drawn = True
        if n == 1:
            return [0] * size
        threshold, out = 2**16 % n, []
        while len(out) < size:
            # words for the draws still missing; only rejections ask for more
            words = self._words((size - len(out) + 1) // 2)
            draws = [0] * (2 * len(words))
            draws[0::2] = [word & _MASK16 for word in words]
            draws[1::2] = [word >> 16 for word in words]
            out += [v >> 16 for v in [draw * n for draw in draws] if v & _MASK16 >= threshold]
        del out[size:]  # the last word's unused upper half
        return out
