"""Deterministic random number generation for reproducible certificates.

The generator is SplitMix64 (Steele, Lea and Flood's splittable generator as
popularized by the Java 8 SplittableRandom implementation): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-shift-multiply
rounds. It is tiny, portable, and fully determined by its seed, which is why
every seed printed in a certificate reproduces the same draws on any machine.

Every output comes from one loop, `draw`: it advances the counter, mixes and
rejects on local integers, and stores the counter back once, so a sampler
try's n - 2 draws cost one call. `below` and `next_u64` are one-draw calls of
it; `next_u64` draws below 2^64, where nothing is rejected.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
        limit = (1 << 64) - ((1 << 64) % n)
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

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        return self.draw(1 << 64, 1)[0]

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so draws are unbiased."""
        return self.draw(n, 1)[0]

    def derive_seed(self) -> int:
        """Fresh 64-bit seed for an independent child stream."""
        return self.next_u64()
