"""The stream of numpy's ``default_rng(seed)``, reproduced with the stdlib.

numpy's default_rng(seed) mixes the seed's 32-bit words into a pool of four by numpy's
SeedSequence and seeds PCG64 from four 64-bit words of the pool's output: a
128-bit linear congruential generator whose state is put out as 64 bits by
XSL-RR (O'Neill, PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation, 2014).  ``DefaultRng`` steps the
same generator and derives from its words what numpy's ``uniform`` and
``permutation`` do, so the kernel scans' sample points and permutations are
numpy's bit for bit at every seed, without importing numpy's random module
(about 6 MB and 10 ms of start-up, more than a scan's few hundred draws take).
"""

from __future__ import annotations

import math

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the 32-bit words of seed, low first, hashed into four words."""
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class DefaultRng:
    """The draws of numpy's ``default_rng(seed)`` that the kernel scans take.

    A negative seed raises ValueError, as numpy's SeedSequence does.
    """

    def __init__(self, seed: int):
        pool = _seed_pool(seed)
        # SeedSequence.generate_state(4, uint64): eight hashed 32-bit words, paired low first
        const, out = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            out.append(value ^ value >> 16)
        w = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _MULT + self._inc) & _M128
        self._half: int | None = None  # the unused high half of a word split for 32-bit draws

    def _words(self, count: int) -> list[int]:
        """The next count 64-bit outputs: step the LCG, then XSL-RR of the new state."""
        state, inc, mult, m64, m128 = self._state, self._inc, _MULT, _M64, _M128
        out = [0] * count
        for k in range(count):
            state = (state * mult + inc) & m128
            x = ((state >> 64) ^ state) & m64
            rot = state >> 122
            out[k] = (x >> rot | x << (64 - rot)) & m64
        self._state = state
        return out

    def uniform(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        """Float64 draws of shape in [low, high): low + (high - low) u, u = (word >> 11) 2^-53."""
        words = np.array(self._words(math.prod(shape)), dtype=np.uint64) >> np.uint64(11)
        return low + (high - low) * (words.astype(np.float64) * 2.0**-53).reshape(shape)

    def permutations(self, n: int, count: int) -> list[list[int]]:
        """count successive ``permutation(n)`` draws, each a list of 0..n-1, for n <= 2^32.

        Fisher-Yates from the top: position i swaps with j in [0, i], j the first
        32-bit draw masked to i's bit length that is at most i.  A 32-bit draw is
        the low half of a new word, or the high half kept from the one before.
        """
        state, inc, half, mult, m64, m128 = self._state, self._inc, self._half, _MULT, _M64, _M128
        masks = [(1 << i.bit_length()) - 1 for i in range(n)]
        out = []
        for _ in range(count):
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                mask = masks[i]
                while True:
                    if half is None:
                        state = (state * mult + inc) & m128
                        x = ((state >> 64) ^ state) & m64
                        rot = state >> 122
                        x = (x >> rot | x << (64 - rot)) & m64
                        j, half = x & mask, x >> 32
                    else:
                        j, half = half & mask, None
                    if j <= i:
                        break
                perm[i], perm[j] = perm[j], perm[i]
            out.append(perm)
        self._state, self._half = state, half
        return out
