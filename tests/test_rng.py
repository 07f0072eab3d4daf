"""Deterministic stream generator used for sampling."""

import hashlib
from array import array

import pytest

import quadcert.rng
from quadcert.rng import LANES, SplitMix64
from _rngref import draw_one_at_a_time, next_u64


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_known_first_output():
    # reference value for seed 0; pinned from the published mixing
    # constants so any accidental edit to the mixer shows up here
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_below_is_in_range():
    r = SplitMix64(99)
    for n in (1, 2, 7, 11, 81, 6561, 10 ** 9):
        for _ in range(20):
            v = r.below(n)
            assert 0 <= v < n


def test_below_hits_all_residues_eventually():
    r = SplitMix64(7)
    seen = {r.below(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_next_u64_seeds_are_distinct_and_reproducible():
    a = SplitMix64(42)
    s1 = a.next_u64()
    s2 = a.next_u64()
    assert s1 != s2
    b = SplitMix64(42)
    assert (b.next_u64(), b.next_u64()) == (s1, s2)


# The first 64 values of below(n) from SplitMix64(20231), recorded with the
# one-draw-at-a-time loop that preceded the batched `draw`: (n, first three
# values, sha256 of repr(list of all 64)). Samplers consume below() only, so
# this pin is what keeps the sampled points and certificates stable. At
# n = 2^63 + 1 about half of the raw outputs are rejected, so the rejection
# branch is covered; at n = 2^64 - 1 only the output 2^64 - 1 is.
BELOW_PINS = (
    (1, [0, 0, 0], "76b25cdd1535b0bb8a35e67db0fb144374b3f0efac1fe31b5f2dd32ed6a164d1"),
    (2, [0, 0, 0], "0b63a91e37c2476c64f3041138a60bcb73c60c6cd89e009bccb7d448dd5d0dc0"),
    (31, [30, 18, 30], "6e8e55bbd4d3441b1b76272c60a25bfb89e46813ded7a10c55e2b0b6761675f6"),
    (81, [73, 65, 72], "6a4e6401c2007c1a2c322584c37635eb9bde7e8c75f0681d369de25cb9bb42c6"),
    (3**12, [44056, 311348, 391788], "ddb2336d7ad0f5fff0de067aef56c32b1dd13192693a42e97916f71f4ff765c7"),
    (
        2**63 + 1,
        [5328307514490924934, 1407450361899396980, 196014013208256330],
        "f01660cb57dd49fc43349f286bfbfb7876e2c1c47cd5aee95351ae473021d983",
    ),
    (
        2**64 - 1,
        [5328307514490924934, 1407450361899396980, 196014013208256330],
        "e93c021e5f8d56bf1b72abee55463425edaeb53caae77095bfbc0ef74f345d75",
    ),
)


@pytest.mark.parametrize("n, head, digest", BELOW_PINS, ids=[str(pin[0]) for pin in BELOW_PINS])
def test_below_stream_pin(n, head, digest):
    r = SplitMix64(20231)
    values = [r.below(n) for _ in range(64)]
    assert values[:3] == head
    assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


# draw counts around the lane pass: one output (`below`), the smallest
# passes, a sampler try at n = 15, one lane short of a full pass, a full
# pass, and counts that take two and three passes
LANE_COUNTS = (1, 2, 3, 4, 5, 6, 13, 64, LANES - 1, LANES, LANES + 1, 2 * LANES + 7)
# the pinned bounds, and bounds that reject about one raw output in 2^10
# (2^54 + 1) and one in four (3·2^62), and 2^64, which rejects none
DRAW_BOUNDS = [pin[0] for pin in BELOW_PINS] + [2**54 + 1, 3 * 2**62, 2**64]


@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_batched_draw_matches_single_draws(n):
    # one draw(n, count) returns the values of the one-output reference loop
    # and of count below(n) calls, and leaves the stream where they leave it;
    # at 2^63 + 1 about half of the raw outputs are rejected, so most passes
    # come back short and the next pass asks for what is still missing
    for seed in (0, 7, 20231):
        for count in LANE_COUNTS:
            single, batched = SplitMix64(seed), SplitMix64(seed)
            expected, state = draw_one_at_a_time(seed, n, count)
            assert batched.draw(n, count) == expected, (seed, count)
            assert [single.below(n) for _ in range(count)] == expected, (seed, count)
            assert batched.next_u64() == single.next_u64() == next_u64(state), (seed, count)


@pytest.mark.parametrize("count", [5, 64, 1024])
def test_lane_pass_reads_words_on_a_big_endian_machine(monkeypatch, count):
    # there array("Q", bytes) reads each 8-byte word most significant byte
    # first, the byteswap of the little-endian read; the lane pass must
    # swap the words back
    def big_endian_array(typecode, data):
        words = array(typecode, data)
        words.byteswap()
        return words

    monkeypatch.setattr(quadcert.rng, "_BIG_ENDIAN", True)
    monkeypatch.setattr(quadcert.rng, "array", big_endian_array)
    for n in (31, 3**12, 2**64):
        batched = SplitMix64(20231)
        expected, state = draw_one_at_a_time(20231, n, count)
        assert batched.draw(n, count) == expected
        assert batched.next_u64() == next_u64(state)


def test_a_rejecting_draw_over_three_passes_matches_the_reference_loop(monkeypatch):
    # below 2^54 + 1 about one raw output in 2^10 is rejected: from this seed
    # each of the two full passes rejects one lane, so the third pass asks
    # for the 9 outputs still missing and accepts them all; the draw ends on
    # the reference loop's values and leaves the stream where the loop does
    n, count = 2**54 + 1, 2 * LANES + 7
    passes = []
    lanes = SplitMix64._lanes

    def counted(self, n, limit, asked):
        out = lanes(self, n, limit, asked)
        passes.append((asked, len(out)))
        return out

    monkeypatch.setattr(SplitMix64, "_lanes", counted)
    r = SplitMix64(20231)
    expected, state = draw_one_at_a_time(20231, n, count)
    assert r.draw(n, count) == expected
    assert passes == [(LANES, LANES - 1), (LANES, LANES - 1), (9, 9)]
    assert r.next_u64() == next_u64(state)


def test_rejection_consumes_extra_outputs():
    # below 2^63 + 1, 64 accepted values need more than 64 raw outputs, so the
    # stream ends elsewhere than after 64 unrejected draws (1829333724706616933,
    # recorded with the one-draw loop)
    raw = SplitMix64(20231)
    raw.draw(1 << 64, 64)
    assert raw.next_u64() == 1829333724706616933
    rejecting = SplitMix64(20231)
    rejecting.draw(2**63 + 1, 64)
    assert rejecting.next_u64() == 14766966034592348155


def test_draw_count_zero_and_bad_bound():
    r = SplitMix64(5)
    assert r.draw(7, 0) == []
    assert r.next_u64() == SplitMix64(5).next_u64()
    # above 2^64 no output is below the largest multiple of n that fits in
    # 64 bits (it is 0), so the loop would never return
    for n in (0, -3, 2**64 + 1, 2**65):
        with pytest.raises(ValueError):
            r.draw(n, 1)
        with pytest.raises(ValueError):
            r.below(n)
