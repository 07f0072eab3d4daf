"""Deterministic random number generation for reproducible certificates.

The generator is SplitMix64 (Steele, Lea and Flood's splittable generator as
popularized by the Java 8 SplittableRandom implementation): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-shift-multiply
rounds. It is tiny, portable, and fully determined by its seed, which is why
every seed printed in a certificate reproduces the same draws on any machine.

The generator is counter-based: output i of a stream mixes
`state + (i + 1)·γ` and nothing else, so a run of outputs can be computed at
once. `draw` does that for up to `LANES` outputs a pass, as 128-bit lanes of
one Python integer (`_lanes`); 128 bits hold a 64-bit lane times a 64-bit
constant, so no lane carries into the next. When a lane is rejected, and for
fewer than `_MIN_LANES` outputs (`below` and `next_u64` draw one), it runs the
one-output-at-a-time loop (`_scalar`) instead, so every call returns exactly
what that loop returns and leaves the stream where it leaves it. `next_u64`
draws below 2^64, where nothing is rejected.
"""

import sys
from array import array
from itertools import repeat
from operator import mod

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Outputs a lane pass computes at most; bounds the size of the integers one
# `draw` builds (16 bytes a lane), however many outputs it is asked for.
LANES = 1024
# Draws of fewer outputs run the one-output loop: a lane pass has a fixed
# cost of 2-3 µs, which its lanes repay from about 5 outputs.
_MIN_LANES = 5
# A 1 in every 128-bit lane, gamma·(i + 1) mod 2^64 in lane i, and the low 64
# bits of every lane, for LANES lanes; a pass of fewer lanes masks them down.
_ONES = int.from_bytes((1).to_bytes(16, "little") * LANES, "little")
_STEPS = int.from_bytes(
    b"".join((_GAMMA * i & _MASK).to_bytes(16, "little") for i in range(1, LANES + 1)),
    "little",
)
_LOW = _ONES * _MASK
_BIG_ENDIAN = sys.byteorder == "big"


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def draw(self, n: int, count: int) -> list[int]:
        """count uniform integers in [0, n), each by rejection so draws are
        unbiased: an output at or above the largest multiple of n that fits
        in 64 bits is discarded and the next one taken. The stream advances
        exactly as count calls of `below(n)` would, whichever way the outputs
        are computed. n must lie in [1, 2^64]: above 2^64 that multiple is 0
        and every output would be rejected."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2^64], got {n}")
        rem = (1 << 64) % n
        if count < _MIN_LANES:
            return self._scalar(n, rem, count)
        out = []
        while count > 0:
            lanes = min(count, LANES)
            out += self._lanes(n, rem, lanes)
            count -= lanes
        return out

    def _scalar(self, n: int, rem: int, count: int) -> list[int]:
        limit = (1 << 64) - rem
        state = self._state
        out = []
        while len(out) < count:
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK
            z ^= z >> 31
            if z < limit:
                out.append(z % n)
        self._state = state
        return out

    def _lanes(self, n: int, rem: int, lanes: int) -> list[int]:
        # the next `lanes` outputs in one pass; a shift pulls the low bits of
        # the lane above into the top of each lane, so every shifted value is
        # masked back to 64 bits before the next multiply. The last shift
        # leaves them in bits 97-127, above bit 64 and the low word read back
        top = (1 << (128 * lanes)) - 1
        ones = _ONES & top
        state = self._state
        z = (state * ones + (_STEPS & top)) & _LOW
        z = (((z ^ (z >> 30)) & _LOW) * _MIX1) & _LOW
        z = (((z ^ (z >> 27)) & _LOW) * _MIX2) & _LOW
        z ^= z >> 31
        # z >= 2^64 - rem in some lane carries into bit 64 of that lane
        if rem and ((z + rem * ones) >> 64) & ones:
            return self._scalar(n, rem, lanes)
        self._state = (state + lanes * _GAMMA) & _MASK
        words = array("Q", z.to_bytes(16 * lanes, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        return list(map(mod, words[::2], repeat(n)))

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        return self.draw(1 << 64, 1)[0]

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so draws are unbiased."""
        return self.draw(n, 1)[0]

    def derive_seed(self) -> int:
        """Fresh 64-bit seed for an independent child stream."""
        return self.next_u64()
