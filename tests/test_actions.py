"""Coordinate permutations and the affine line action."""

import pytest
from hypothesis import given, strategies as st

from quadcert.errors import NotOnQuadricError, SizeMismatchError
from quadcert.gf import field_make
from quadcert.quadric import AmbientPoint, in_small_diagonal, on_quadric, sample_quadric_point
from quadcert import actions
from quadcert.actions import (
    AffineMap,
    Permutation,
    affine_act,
    affine_compose,
    compose,
    invariance_report,
    permute,
    random_affine,
    random_permutation,
)
from quadcert.profile import binary_profile
from quadcert.rng import SplitMix64
from quadcert.trace_system import lift_block_solution, solve_block_system
from _docref import written
from _jacobianref import gradient_matrix
from _laneref import rank
from _points import expanded, point


F11 = field_make(11)
BASE = AmbientPoint(F11, (9, 5, 1, 3, 4))


def test_permutation_basics():
    s = Permutation((2, 3, 1))  # the cycle 1 -> 2 -> 3 -> 1
    assert s(1) == 2 and s(3) == 1
    assert s.inverse().images == (3, 1, 2)
    assert compose(s, s.inverse()) == compose(s.inverse(), s) == Permutation((1, 2, 3))
    swap = Permutation((1, 4, 3, 2, 5))  # the transposition of 2 and 4
    assert swap.inverse() == swap and swap(2) == 4 and swap(4) == 2
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_permute_moves_values_to_image_slots():
    f31 = field_make(31)
    a = AmbientPoint(f31, (10, 20, 30))
    s = Permutation((2, 3, 1))
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
        permute(Permutation((1, 2, 3, 4)), BASE)
    with pytest.raises(SizeMismatchError):
        compose(Permutation((1, 2, 3, 4)), Permutation((1, 2, 3, 4, 5)))


def test_affine_map_basics():
    g = AffineMap(F11.el(2), F11.el(1))
    inverse = AffineMap(F11.el(6), F11.el(5))  # 1/2 = 6 and -6 * 1 = 5 mod 11
    identity = AffineMap(F11.one, F11.zero)
    assert affine_compose(g, inverse) == affine_compose(inverse, g) == identity
    assert affine_act(identity, BASE) == BASE
    with pytest.raises(ValueError):
        AffineMap(F11.zero, F11.el(1))


def test_affine_act_pin():
    g = AffineMap(F11.el(2), F11.el(1))
    out = affine_act(g, BASE)
    assert [e.coeffs[0] for e in out.coords] == [8, 0, 3, 7, 9]


@pytest.mark.parametrize("n,p", [(15, 3), (77, 11)])
def test_affine_act_moves_every_coordinate_of_a_block_lift(n, p):
    # a lift repeats each c_i 2^m_i times: every copy moves to alpha x + beta
    lift = expanded(lift_block_solution(solve_block_system(binary_profile(n), p)))
    assert len(set(lift.codes)) < lift.n
    rng = SplitMix64(n)
    for g in [random_affine(lift.ctx, rng) for _ in range(5)]:
        assert affine_act(g, lift).coords == tuple(g.alpha * x + g.beta for x in lift.coords)


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


@pytest.mark.parametrize("wrong", ["s1", "p2"])
def test_identities_fail_when_one_moved_sum_is_off(monkeypatch, wrong):
    # either moved power sum alone off its prediction breaks the identities
    exact = actions.power_sums

    def off(a, move=None):
        (s1, p2), unmoved = exact(a, move)
        return ((s1 + F11.one, p2) if wrong == "s1" else (s1, p2 + F11.one)), unmoved

    monkeypatch.setattr(actions, "power_sums", off)
    rep = invariance_report(BASE, AffineMap(F11.el(2), F11.el(1)))
    assert (rep.s1_after == rep.expected_s1) == (wrong == "p2")
    assert (rep.p2_after == rep.expected_p2) == (wrong == "s1")
    assert not rep.identities_hold


def test_invariance_requires_membership():
    g = AffineMap(F11.el(2), F11.el(1))
    off = AmbientPoint(F11, (1, 2, 3, 4, 5))
    with pytest.raises(NotOnQuadricError):
        invariance_report(off, g)


def test_invariance_report_refuses_a_map_of_another_field():
    # GF(11) and GF(13) elements, and a twin context of GF(11) itself
    twin = type(F11)(11, 1, F11.modulus)
    for g in (AffineMap(field_make(13).el(2), field_make(13).el(1)), AffineMap(twin.el(2), twin.el(1))):
        with pytest.raises(ValueError):
            invariance_report(BASE, g)


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


@pytest.mark.parametrize("p, k, n", [(7, 1, 6), (3, 4, 9), (5, 4, 10)])
def test_structural_ranks_match_elimination(p, k, n):
    # in_small_diagonal stands for two 2 x n ranks: [x; 1] has rank 1 on the
    # small diagonal and 2 off it, and so, on the quadric, has the gradient
    # matrix [1; 2x]; eliminating them must agree, at seeded vectors,
    # constant vectors and constants with one coordinate changed
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
    ranks = set()
    for coords in vectors:
        a = point(coords)
        expected = 1 if in_small_diagonal(a) else 2
        assert rank([coords, [ctx.one] * len(coords)]) == expected
        # p copies of any vector lie on the quadric in characteristic p
        b = point(coords * p)
        assert on_quadric(b)
        for on in (a, b) if on_quadric(a) else (b,):
            assert rank(gradient_matrix(on)) == expected
        ranks.add(expected)
    assert ranks == {1, 2}


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


def test_written_report():
    g = AffineMap(F11.el(2), F11.el(1))
    doc = written(invariance_report(BASE, g))
    assert doc["identities_hold"] is True
    assert doc["stays_on_quadric"] is False
    assert doc["s1_after"] == [5]
