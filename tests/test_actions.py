"""Coordinate permutations and the affine line action."""

import itertools

import pytest
from hypothesis import given, strategies as st

from quadcert.errors import NotOnQuadricError, SizeMismatchError
from quadcert.gf import field_make
from quadcert.linalg import Matrix, rank
from quadcert.quadric import (
    AmbientPoint,
    on_quadric,
    sample_quadric_point,
    smoothness_matrix,
    smoothness_rank,
)
from quadcert.actions import (
    AffineMap,
    Permutation,
    affine_act,
    affine_compose,
    affine_stabilizer,
    compose,
    invariance_report,
    permute,
    random_affine,
    random_permutation,
)
from quadcert.rng import SplitMix64


F11 = field_make(11)
BASE = AmbientPoint(tuple(F11.el(v) for v in (9, 5, 1, 3, 4)))


def test_permutation_basics():
    s = Permutation.from_cycle(3, (1, 2, 3))
    assert s.images == (2, 3, 1)
    assert s(1) == 2 and s(3) == 1
    assert s.inverse().images == (3, 1, 2)
    assert compose(s, s.inverse()) == Permutation.identity(3)
    assert Permutation.transposition(5, 2, 4).images == (1, 4, 3, 2, 5)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_permute_moves_values_to_image_slots():
    f31 = field_make(31)
    a = AmbientPoint(tuple(f31.el(v) for v in (10, 20, 30)))
    s = Permutation.from_cycle(3, (1, 2, 3))
    # value at slot j lands at slot sigma(j)
    assert [e.coeffs[0] for e in permute(s, a).coords] == [30, 10, 20]


def test_permute_is_a_left_action():
    rng = SplitMix64(11)
    for _ in range(40):
        s = random_permutation(5, rng)
        t = random_permutation(5, rng)
        lhs = permute(compose(s, t), BASE)
        rhs = permute(s, permute(t, BASE))
        assert lhs == rhs


def test_size_mismatch_rejected():
    with pytest.raises(SizeMismatchError):
        permute(Permutation.identity(4), BASE)
    with pytest.raises(SizeMismatchError):
        compose(Permutation.identity(4), Permutation.identity(5))


def test_affine_map_basics():
    g = AffineMap(F11.el(2), F11.el(1))
    assert g.inverse().alpha == F11.el(6)  # 1/2 = 6 mod 11
    assert g.inverse().beta == F11.el(5)  # -6 * 1 = 5 mod 11
    gid = AffineMap.identity(F11)
    assert affine_compose(g, g.inverse()) == gid
    with pytest.raises(ValueError):
        AffineMap(F11.zero, F11.el(1))


def test_affine_act_pin():
    g = AffineMap(F11.el(2), F11.el(1))
    out = affine_act(g, BASE)
    assert [e.coeffs[0] for e in out.coords] == [8, 0, 3, 7, 9]


def test_affine_group_law_on_points():
    rng = SplitMix64(23)
    for _ in range(40):
        g = random_affine(F11, rng)
        h = random_affine(F11, rng)
        assert affine_act(affine_compose(g, h), BASE) == affine_act(
            g, affine_act(h, BASE)
        )


def test_permutations_commute_with_affine_maps():
    rng = SplitMix64(5)
    for _ in range(40):
        s = random_permutation(5, rng)
        g = random_affine(F11, rng)
        assert permute(s, affine_act(g, BASE)) == affine_act(g, permute(s, BASE))


def test_invariance_report_pin():
    g = AffineMap(F11.el(2), F11.el(1))
    rep = invariance_report(BASE, g)
    # n = 5, beta = 1: the translated sum is 5 * 1, off the quadric here
    assert rep.s1_after == F11.el(5)
    assert rep.expected_s1 == F11.el(5)
    assert rep.p2_after == F11.el(5)
    assert rep.identities_hold
    assert not rep.stays_on_quadric


def test_invariance_requires_membership():
    g = AffineMap(F11.el(2), F11.el(1))
    off = AmbientPoint(tuple(F11.el(v) for v in (1, 2, 3, 4, 5)))
    with pytest.raises(NotOnQuadricError):
        invariance_report(off, g)


def test_quadric_preserved_exactly_when_char_divides_n():
    # n = 6 over GF(27): 3 | 6, so every affine map fixes the quadric
    f27 = field_make(3, 3)
    rng = SplitMix64(9)
    a = sample_quadric_point(6, f27, seed=2)
    for _ in range(25):
        g = random_affine(f27, rng)
        rep = invariance_report(a, g)
        assert rep.identities_hold
        assert rep.stays_on_quadric
        assert on_quadric(affine_act(g, a))
    # n = 5 over GF(11): translations break membership
    shift = AffineMap(F11.one, F11.el(3))
    assert not invariance_report(BASE, shift).stays_on_quadric


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_invariance_identities_always_hold(seed):
    rng = SplitMix64(seed)
    g = random_affine(F11, rng)
    rep = invariance_report(BASE, g)
    assert rep.identities_hold


def test_stabilizer_dichotomy_exhaustive():
    # n = 2 over GF(7): small enough to check the claim literally
    f7 = field_make(7)
    maps = [
        AffineMap(a, b)
        for a in f7.elements()
        if not a.is_zero()
        for b in f7.elements()
    ]
    for vals in itertools.product(range(7), repeat=2):
        a = AmbientPoint(tuple(f7.el(v) for v in vals))
        fixers = [g for g in maps if affine_act(g, a) == a]
        res = affine_stabilizer(a)
        if vals[0] == vals[1]:
            assert res.kind == "OneDimensional"
            assert res.constant == f7.el(vals[0])
            assert len(fixers) == 6  # one alpha-parameter family
            for g in fixers:
                assert g.beta == res.constant * (f7.one - g.alpha)
        else:
            assert res.kind == "Trivial"
            assert fixers == [AffineMap.identity(f7)]


def test_stabilizer_on_base_point():
    assert affine_stabilizer(BASE).kind == "Trivial"
    const = AmbientPoint(tuple(F11.el(2) for _ in range(5)))
    res = affine_stabilizer(const)
    assert res.kind == "OneDimensional" and res.constant == F11.el(2)


@pytest.mark.parametrize("p, k, n", [(7, 1, 6), (3, 4, 9), (5, 4, 10)])
def test_structural_ranks_match_elimination(p, k, n):
    # affine_stabilizer and smoothness_rank read their 2 x n ranks off
    # in_small_diagonal; eliminating the same matrices must agree, at seeded
    # vectors, constant vectors and constants with one coordinate changed
    ctx = field_make(p, k)
    rng = SplitMix64(1000 * p + k)

    def draw():
        return ctx.element_at(rng.below(ctx.size))

    vectors = [list(sample_quadric_point(n, ctx, seed).coords) for seed in range(3)]
    for length in (2, 3, n):
        vectors += [[draw() for _ in range(length)] for _ in range(6)]
        for c in (ctx.zero, ctx.one, draw()):
            vectors.append([c] * length)
            for i in range(length):
                other = [c] * length
                other[i] = c + ctx.element_at(1 + rng.below(ctx.size - 1))
                vectors.append(other)
    kinds = set()
    for coords in vectors:
        a = AmbientPoint(tuple(coords))
        stacked = rank(Matrix.from_rows([coords, [ctx.one] * len(coords)]))
        kind = affine_stabilizer(a).kind
        assert kind == ("Trivial" if stacked == 2 else "OneDimensional")
        # p copies of any vector lie on the quadric in characteristic p
        b = AmbientPoint(tuple(coords) * p)
        assert on_quadric(b)
        for point in (a, b) if on_quadric(a) else (b,):
            assert smoothness_rank(point) == rank(smoothness_matrix(point))
        kinds.add(kind)
    assert kinds == {"Trivial", "OneDimensional"}


def test_random_generators_are_valid():
    rng = SplitMix64(3)
    for _ in range(30):
        s = random_permutation(7, rng)
        assert sorted(s.images) == list(range(1, 8))
        g = random_affine(F11, rng)
        assert not g.alpha.is_zero()
    rng_a = SplitMix64(4)
    rng_b = SplitMix64(4)
    assert random_permutation(7, rng_a) == random_permutation(7, rng_b)


def test_report_to_json():
    g = AffineMap(F11.el(2), F11.el(1))
    doc = invariance_report(BASE, g).to_json()
    assert doc["identities_hold"] is True
    assert doc["stays_on_quadric"] is False
    assert doc["s1_after"] == [5]
