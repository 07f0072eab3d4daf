"""Reference SplitMix64: one output at a time.

The plain counterpart of `quadcert.rng.SplitMix64.draw`, which computes its
outputs as 128-bit lanes of one integer: this advances the 64-bit counter
by the golden gamma, mixes, and keeps the output when it lies below the
largest multiple of n that fits in 64 bits, until count outputs are kept.
It shares no code with the lane pass, so a defect in the pass (a dropped
filter, a pass of the wrong length, an unswapped word on a big-endian
machine) shows up as a difference from it.
"""

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def draw_one_at_a_time(state: int, n: int, count: int) -> tuple[list[int], int]:
    """(count uniform integers in [0, n), the state after them) for a stream
    in state `state`; the seed is the state of a fresh stream."""
    limit = (1 << 64) - (1 << 64) % n
    out = []
    while len(out) < count:
        state = (state + GAMMA) & MASK
        z = ((state ^ (state >> 30)) * MIX1) & MASK
        z = ((z ^ (z >> 27)) * MIX2) & MASK
        z ^= z >> 31
        if z < limit:
            out.append(z % n)
    return out, state


def next_u64(state: int) -> int:
    """The first output of a stream in state `state`."""
    return draw_one_at_a_time(state, 1 << 64, 1)[0][0]
