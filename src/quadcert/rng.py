"""Deterministic random number generation for reproducible certificates.

The generator is SplitMix64 (Steele, Lea and Flood's splittable generator as
popularized by the Java 8 SplittableRandom implementation): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-shift-multiply
rounds. It is tiny, portable, and fully determined by its seed, which is why
every seed printed in a certificate reproduces the same draws on any machine.

The generator is counter-based: output i of a stream mixes
`state + (i + 1)·γ` and nothing else, so a run of outputs can be computed at
once. `draw` computes every output that way, up to `LANES` a pass, as
128-bit lanes of one Python integer (`_lanes`); 128 bits hold a 64-bit lane
times a 64-bit constant, so no lane carries into the next. A pass returns
its accepted lanes in order and `draw` asks the next pass only for the
outputs still missing, so the last pass accepts all of its lanes: a call
returns exactly what one output at a time would, skipping each rejected
one, and leaves the stream after the same output. `below` and `next_u64`
draw one output; `next_u64` draws below 2^64, where nothing is rejected.
"""

import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Outputs a lane pass computes at most; bounds the size of the integers one
# `draw` builds (16 bytes a lane), however many outputs it is asked for.
LANES = 1024
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
        exactly as count calls of `below(n)` would. n must lie in [1, 2^64]:
        above 2^64 that multiple is 0 and every output would be rejected."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2^64], got {n}")
        limit = (1 << 64) - (1 << 64) % n
        out = []
        while len(out) < count:
            out += self._lanes(n, limit, min(count - len(out), LANES))
        return out

    def _lanes(self, n: int, limit: int, lanes: int) -> list[int]:
        # the next `lanes` outputs in one pass, those below limit taken mod n;
        # a shift pulls the low bits of the lane above into the top of each
        # lane, so every shifted value is masked back to 64 bits before the
        # next multiply. The last shift leaves them in bits 97-127, above the
        # low word read back
        top = (1 << (128 * lanes)) - 1
        state = self._state
        z = (state * (_ONES & top) + (_STEPS & top)) & _LOW
        z = (((z ^ (z >> 30)) & _LOW) * _MIX1) & _LOW
        z = (((z ^ (z >> 27)) & _LOW) * _MIX2) & _LOW
        z ^= z >> 31
        self._state = (state + lanes * _GAMMA) & _MASK
        words = array("Q", z.to_bytes(16 * lanes, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        return [w % n for w in words[::2] if w < limit]

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        return self.draw(1 << 64, 1)[0]

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so draws are unbiased."""
        return self.draw(n, 1)[0]

    def derive_seed(self) -> int:
        """Fresh 64-bit seed for an independent child stream."""
        return self.next_u64()
