"""Points with vanishing first two power sums: membership, smoothness, sampling."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import quadcert.quadric as quadric_module
from quadcert.errors import NoPointFoundError
from quadcert.gf import FieldCtx, field_make
from quadcert.profile import binary_profile
from quadcert.rng import LANES, SplitMix64
from quadcert.quadric import (
    AmbientPoint,
    complete_quadric_pair,
    default_max_tries,
    in_discriminant,
    in_small_diagonal,
    on_quadric,
    power_sums,
    sample_quadric_point,
)
from quadcert.trace_system import lift_block_solution, solve_block_system
from _docref import written
from _gaussref import matvec
from _jacobianref import gradient_matrix
from _laneref import kernel_basis, rank
from _points import expanded, point


def pt(ctx, vals):
    return point(map(ctx.el, vals))


def complete(tail):
    """complete_quadric_pair on the codes of a tail of elements."""
    ctx = tail[0].ctx
    return complete_quadric_pair(ctx, map(ctx.element_index, tail))


F11 = field_make(11)
BASE = pt(F11, (9, 5, 1, 3, 4))


def test_membership_pins():
    s1, s2 = power_sums(BASE)
    assert s1.is_zero() and s2.is_zero()
    assert on_quadric(BASE)
    assert not in_discriminant(BASE)
    assert not in_small_diagonal(BASE)

    off = pt(F11, (1, 2, 3, 4, 5))
    assert not on_quadric(off)
    assert in_discriminant(pt(F11, (9, 5, 1, 3, 3)))
    assert in_small_diagonal(pt(F11, (4, 4, 4, 4, 4)))


def test_smoothness_at_base_point():
    assert rank(gradient_matrix(BASE)) == 2


def test_singular_locus_is_the_small_diagonal():
    # over GF(3) with n = 6, constant vectors lie on the quadric and the
    # two gradient rows become proportional there
    f3 = field_make(3)
    const = pt(f3, (1, 1, 1, 1, 1, 1))
    assert on_quadric(const)
    assert in_small_diagonal(const)
    assert rank(gradient_matrix(const)) == 1


@pytest.mark.parametrize("p,k", [(3, 1), (3, 4), (11, 2)])
def test_small_diagonal_checks_every_coordinate(p, k):
    # a vector that is constant but for one coordinate, wherever it sits,
    # is off the small diagonal
    ctx = field_make(p, k)
    a, b = ctx.one, ctx.el(2)
    assert in_small_diagonal(point((a,) * 9))
    for i in range(9):
        coords = [a] * 9
        coords[i] = b
        assert not in_small_diagonal(point(coords))


def test_tangent_basis():
    m = gradient_matrix(BASE)
    basis = kernel_basis(m)
    assert len(basis) == 3  # n - 2 at a smooth point
    zero2 = (F11.zero, F11.zero)
    for v in basis:
        assert matvec(m, v) == zero2


def test_completion_pin():
    tail = tuple(F11.el(v) for v in (1, 3, 4))
    pair = complete(tail)
    assert pair == (9, 5)  # a code of GF(11) is its residue


def test_completion_no_root():
    # tail (1,2,3) over GF(7): the completing discriminant is 6, a
    # nonsquare, so no pair exists
    f7 = field_make(7)
    tail = tuple(f7.el(v) for v in (1, 2, 3))
    assert complete(tail) is None


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_completion_lands_on_quadric(seed):
    # any completed pair makes all power sums vanish
    from quadcert.rng import SplitMix64

    rng = SplitMix64(seed)
    ctx = field_make(11)
    tail = tuple(ctx.element_at(rng.below(11)) for _ in range(3))
    pair = complete(tail)
    if pair is not None:
        a = point(tuple(map(ctx.element_at, pair)) + tail)
        assert on_quadric(a)


def test_sampler_pin_and_determinism():
    a = sample_quadric_point(5, F11, seed=7)
    b = sample_quadric_point(5, F11, seed=7)
    assert a == b
    assert on_quadric(a) and not in_discriminant(a)


def test_sampler_rejects_small_n():
    with pytest.raises(ValueError):
        sample_quadric_point(4, F11, seed=0)


def test_sampler_reports_empty_locus():
    # n = 5 over GF(7) has no distinct-coordinate point at all
    f7 = field_make(7)
    with pytest.raises(NoPointFoundError) as info:
        sample_quadric_point(5, f7, seed=1)
    assert "extension" in str(info.value)


def test_sampler_fails_at_once_when_n_exceeds_field(monkeypatch):
    # pigeonhole: no distinct-coordinate point, so no try may be made
    def no_rng(seed):
        raise AssertionError("the sampler drew a try")

    monkeypatch.setattr(quadric_module, "SplitMix64", no_rng)
    with pytest.raises(NoPointFoundError) as info:
        sample_quadric_point(8, field_make(7), seed=1)
    assert "n=8" in str(info.value) and "the field has 7" in str(info.value)
    assert "extension" in str(info.value)


def test_sampler_rejects_nonpositive_budget():
    for tries in (0, -5):
        with pytest.raises(ValueError):
            sample_quadric_point(5, F11, seed=0, max_tries=tries)


def test_empty_locus_n6_gf9():
    # exhaustive: no 6-element subset of GF(9) has both power sums zero,
    # so the sampler must give up rather than loop forever
    f9 = field_make(3, 2)
    els = list(f9.elements())
    for sub in itertools.combinations(els, 6):
        s = sum(sub[1:], sub[0])
        q = sum((x * x for x in sub[1:]), sub[0] * sub[0])
        assert not (s.is_zero() and q.is_zero())
    with pytest.raises(NoPointFoundError):
        sample_quadric_point(6, f9, seed=3, max_tries=200)


def test_sampler_finds_points_where_they_exist():
    f27 = field_make(3, 3)
    for seed in range(5):
        a = sample_quadric_point(6, f27, seed=seed)
        assert on_quadric(a) and not in_discriminant(a)
        assert rank(gradient_matrix(a)) == 2


def test_default_budget_scales_with_field():
    assert default_max_tries(F11) == 64 * 11
    assert default_max_tries(field_make(3, 4)) == 64 * 81


def test_point_validation():
    with pytest.raises(ValueError):
        AmbientPoint(F11, (1, 11))  # a code beyond the field
    with pytest.raises(ValueError):
        AmbientPoint(F11, (1,))  # too short


def test_a_point_takes_only_int_codes():
    # a float code once made a point equal to its int twin, whose power
    # sums then raised
    f7 = field_make(7)
    for codes in ((1.0, 2, 3, 4, 5), (1, 2, 3, 4, 5.5), ("1", 2, 3, 4, 5)):
        with pytest.raises(TypeError):
            AmbientPoint(f7, codes)
    assert AmbientPoint(f7, (True, 2)) == AmbientPoint(f7, (1, 2))


def test_written_point_shape():
    assert written(pt(F11, (9, 5, 1, 3, 4))) == [[9], [5], [1], [3], [4]]


# --- the integer kernel against the per-coordinate FieldElement loops -------
#
# The oracles below are the loops the package used before its sums were
# accumulated in plain integers: one field addition and one field product per
# coordinate, and a sampler that decodes every drawn index to an element
# before it looks for collisions.


def _power_sums_oracle(coords):
    ctx = coords[0].ctx
    s1 = ctx.zero
    s2 = ctx.zero
    for x in coords:
        s1 = s1 + x
        s2 = s2 + x * x
    return s1, s2


def _complete_pair_oracle(tail):
    ctx = tail[0].ctx
    s, q = _power_sums_oracle(tail)
    disc = -(s * s) - q - q
    root = disc.sqrt()
    if root is None:
        return None
    half = ctx.el(2).inverse()
    return (-s + root) * half, (-s - root) * half


def _pair_codes_oracle(tail):
    """_complete_pair_oracle's pair as codes, as complete_quadric_pair gives it."""
    pair = _complete_pair_oracle(tail)
    return pair and tuple(map(tail[0].ctx.element_index, pair))


def _sample_oracle(n, ctx, seed, max_tries):
    """(point coordinates or None, number of completion calls)."""
    rng = SplitMix64(seed)
    completions = 0
    for _ in range(max_tries):
        tail = tuple(ctx.element_at(rng.below(ctx.size)) for _ in range(n - 2))
        if len(set(tail)) < n - 2:
            continue
        completions += 1
        pair = _complete_pair_oracle(tail)
        if pair is None:
            continue
        x1, x2 = pair
        if x1 == x2 or x1 in tail or x2 in tail:
            continue
        return (x1, x2) + tail, completions
    return None, completions


KERNEL_FIELDS = [(7, 1), (3, 4), (5, 4), (3, 12)]


def _distinct_elements(ctx, count, rng):
    seen = {}
    while len(seen) < count:
        j = rng.below(ctx.size)
        seen.setdefault(j, ctx.element_at(j))
    return tuple(seen.values())


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_sums_match_oracle_on_distinct_coordinates(p, k):
    ctx = field_make(p, k)
    rng = SplitMix64(1000 * p + k)
    for count in (2, 3, 5, min(7, ctx.size), min(40, ctx.size)):
        for _ in range(5):
            coords = _distinct_elements(ctx, count, rng)
            assert power_sums(point(coords)) == _power_sums_oracle(coords)
            tail = coords[: max(1, count - 2)]
            assert complete(tail) == _pair_codes_oracle(tail)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_sums_match_oracle_on_block_lifts(p, k):
    # repeated blocks as `construct` lifts them, with multiplicities below,
    # at and above p (8 copies over GF(3) is the construct 15 3 block): a
    # kernel that dropped or misreduced the multiplicity would differ
    ctx = field_make(p, k)
    rng = SplitMix64(2000 * p + k)
    for _ in range(10):
        values = _distinct_elements(ctx, 4, rng)
        sizes = (8, p, p + 1, 1 + rng.below(3 * p))
        coords = tuple(v for v, m in zip(values, sizes) for _ in range(m))
        assert power_sums(point(coords)) == _power_sums_oracle(coords)
        assert complete(coords) == _pair_codes_oracle(coords)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_completion_maps_tail_codes_to_pair_codes(p, k):
    # codes in, codes out, against the element oracle: drawn tails, which
    # often have a nonsquare discriminant, and tails whose pair repeats one
    # of their own codes, which the sampler must reject. For the latter,
    # complete (a, a, rest) to (y_1, y_2); the tail (a, y_1, rest) then
    # completes to y_2 and a
    ctx = field_make(p, k)
    rng = SplitMix64(3000 * p + k)
    nonsquare = colliding = 0
    for _ in range(40):
        codes = rng.draw(ctx.size, 3 + rng.below(5))
        pair = complete_quadric_pair(ctx, codes)
        assert pair == _pair_codes_oracle(tuple(map(ctx.element_at, codes)))
        nonsquare += pair is None
        a, rest = codes[0], codes[1:]
        around = _pair_codes_oracle(tuple(map(ctx.element_at, [a, a] + rest)))
        if around is not None:
            tail = [a, around[0]] + rest
            pair = complete_quadric_pair(ctx, tail)
            assert pair == _pair_codes_oracle(tuple(map(ctx.element_at, tail)))
            assert a in pair and sorted(pair) == sorted((a, around[1]))
            colliding += 1
    assert nonsquare and colliding


def test_sums_match_oracle_on_the_construct_15_3_lift():
    f3 = field_make(3)
    lift = pt(f3, [1] * 8 + [1] * 4 + [0] * 2 + [0])
    assert power_sums(lift) == _power_sums_oracle(lift.coords) == (f3.zero, f3.zero)
    lift8 = pt(f3, [1] * 8)  # 8 = 2 mod 3: sums 2 and 2, not 8 and 8 unreduced
    assert power_sums(lift8) == _power_sums_oracle(lift8.coords) == (f3.el(2), f3.el(2))


# (15, 31, 1) is the certify-gap control: about 160 tries a point, most of
# them lost to code collisions
SAMPLER_CASES = [
    (n, p, 1) for p in (7, 11) for n in (5, 6, 7)
] + [(15, 3, 4), (15, 5, 4), (15, 31, 1)]


def _check_sampler_against_oracle(n, ctx, seeds, budgets, monkeypatch):
    calls = []

    def counted(ctx, codes):
        calls.append(None)
        return complete_quadric_pair(ctx, codes)

    monkeypatch.setattr(quadric_module, "complete_quadric_pair", counted)
    for seed in seeds:
        for budget in budgets:
            expected, completions = _sample_oracle(n, ctx, seed, budget)
            calls.clear()
            if expected is None:
                with pytest.raises(NoPointFoundError):
                    sample_quadric_point(n, ctx, seed, budget)
            else:
                assert sample_quadric_point(n, ctx, seed, budget).coords == expected
            assert len(calls) == completions


@pytest.mark.parametrize("n,p,k", SAMPLER_CASES)
def test_sampler_stream_matches_tail_first_oracle(n, p, k, monkeypatch):
    # the sampler rejects colliding index draws before decoding them and
    # draws its tries ahead in batches of 1, 2, 4, ... tries; the stream of
    # tries, the completions made and the points found must be those of the
    # loop that decoded every tail first, one below() at a time, at the
    # default budget and at budgets that end inside a batch and after 1, 3,
    # 7 and 15 tries, where batches end
    ctx = field_make(p, k)
    budgets = (default_max_tries(ctx), 1, 2, 3, 4, 7, 8, 15)
    _check_sampler_against_oracle(n, ctx, range(50), budgets, monkeypatch)


@pytest.mark.parametrize("n,p,k", SAMPLER_CASES)
def test_sampler_builds_only_the_point_it_returns(n, p, k, monkeypatch):
    # tries stay on codes: a search builds one AmbientPoint if it succeeds
    # and none if it fails, and decodes no code to an element
    ctx = field_make(p, k)
    built, decoded = [], []
    build, element_at = AmbientPoint.__init__, FieldCtx.element_at

    def counted_build(self, ctx, codes):
        built.append(None)
        build(self, ctx, codes)

    def counted_element_at(self, index):
        decoded.append(index)
        return element_at(self, index)

    monkeypatch.setattr(AmbientPoint, "__init__", counted_build)
    monkeypatch.setattr(FieldCtx, "element_at", counted_element_at)
    found = 0
    for seed in range(10):
        built.clear()
        try:
            sample_quadric_point(n, ctx, seed)
        except NoPointFoundError:
            assert built == []
        else:
            assert len(built) == 1
            found += 1
        assert decoded == []
    # n = 5 over GF(7) and n = 7 over GF(11) have no point (by enumeration);
    # elsewhere every seed finds one
    assert found == (0 if (n, p) in ((5, 7), (7, 11)) else 10)


def test_sampler_stream_matches_oracle_when_a_try_spans_lane_passes(monkeypatch):
    # n - 2 codes a try above LANES: every try is a draw of several lane
    # passes. Over GF(3^12) about a third of the tries have distinct codes:
    # of these seeds, 0, 3 and 10 complete a pair and 8 finds a point
    n, ctx = 1100, field_make(3, 12)
    assert n - 2 > LANES
    _check_sampler_against_oracle(n, ctx, range(12), (2,), monkeypatch)


def test_failing_search_draws_in_bounded_memory():
    # 3000 tries at n = 99 over GF(3^5), nearly all lost to collisions, are
    # drawn ahead in batches of at most LANES codes, so a long failing search
    # holds no more than one batch at a time
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(NoPointFoundError):
            sample_quadric_point(99, field_make(3, 5), seed=1, max_tries=3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# --- the packing width of the Kronecker kernel -------------------------------
#
# `_sums` packs coefficient vectors into integers with w bits a digit, w the
# bit length of n k (p - 1)^2. A point whose coordinates all have every
# coefficient p - 1 puts exactly that bound in the middle digit of the square
# sum, so one bit fewer would carry; the cases below sit at that extreme and
# at the largest characteristic, degree and multiplicities the package takes.


def _top(ctx):
    """The element with every coefficient p - 1."""
    return ctx.el([ctx.p - 1] * ctx.k)


def _check_sums(coords):
    assert power_sums(point(coords)) == _power_sums_oracle(coords)


def test_sums_at_the_largest_prime_field():
    ctx = field_make(1048573)  # the largest prime below 2^20
    rng = SplitMix64(1048573)
    top = _top(ctx)
    _check_sums((top,) * 300)
    _check_sums(_distinct_elements(ctx, 300, rng) + (top,) * 7)
    tail = _distinct_elements(ctx, 40, rng)
    assert complete(tail) == _pair_codes_oracle(tail)


@pytest.mark.parametrize("p,k,n", [(3, 12, 500), (13, 5, 200)])
def test_sums_at_the_widest_packing(p, k, n):
    ctx = field_make(p, k)
    rng = SplitMix64(100 * p + k)
    top = _top(ctx)
    _check_sums((top,) * n)
    _check_sums(_distinct_elements(ctx, n - 1, rng) + (top,))
    coords = _distinct_elements(ctx, n, rng)
    _check_sums(coords)
    assert complete(coords) == _pair_codes_oracle(coords)


def test_sums_on_the_4095_coordinate_lift():
    prof = binary_profile(4095)
    lift = expanded(lift_block_solution(solve_block_system(prof, 3)))
    f3 = field_make(3)
    assert power_sums(lift) == _power_sums_oracle(lift.coords) == (f3.zero, f3.zero)
    _check_sums((_top(f3),) * 4095)


def test_sums_on_a_gf121_lift_with_multiplicities_up_to_4095():
    ctx = field_make(11, 2)
    sizes = binary_profile(4095).block_sizes()  # 2048, 1024, ..., 1
    values = (_top(ctx),) + _distinct_elements(ctx, len(sizes) - 1, SplitMix64(121))
    coords = tuple(v for v, m in zip(values, sizes) for _ in range(m))
    _check_sums(coords)
    _check_sums((_top(ctx),) * 4095)
    assert complete(coords) == _pair_codes_oracle(coords)
