"""Points with vanishing first two power sums: membership, smoothness, sampling."""

import itertools

import pytest
from hypothesis import given, strategies as st

import quadcert.quadric as quadric_module
from quadcert.errors import NoPointFoundError, NotOnQuadricError
from quadcert.gf import field_make
from quadcert.linalg import matvec
from quadcert.quadric import (
    AmbientPoint,
    complete_quadric_pair,
    default_max_tries,
    in_discriminant,
    in_small_diagonal,
    on_quadric,
    power_sums,
    sample_quadric_point,
    smoothness_matrix,
    smoothness_rank,
    tangent_basis,
)


def pt(ctx, vals):
    return AmbientPoint(tuple(ctx.el(v) for v in vals))


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
    m = smoothness_matrix(BASE)
    assert (m.rows, m.cols) == (2, 5)
    assert [e.coeffs[0] for e in m.row(0)] == [1] * 5
    assert [e.coeffs[0] for e in m.row(1)] == [7, 10, 2, 6, 8]  # 2 * coords
    assert smoothness_rank(BASE) == 2


def test_smoothness_rank_requires_membership():
    with pytest.raises(NotOnQuadricError):
        smoothness_rank(pt(F11, (1, 2, 3, 4, 5)))


def test_singular_locus_is_the_small_diagonal():
    # over GF(3) with n = 6, constant vectors lie on the quadric and the
    # two gradient rows become proportional there
    f3 = field_make(3)
    const = pt(f3, (1, 1, 1, 1, 1, 1))
    assert on_quadric(const)
    assert in_small_diagonal(const)
    assert smoothness_rank(const) == 1


def test_tangent_basis():
    basis = tangent_basis(BASE)
    assert len(basis) == 3  # n - 2 at a smooth point
    m = smoothness_matrix(BASE)
    zero2 = (F11.zero, F11.zero)
    for v in basis:
        assert matvec(m, v) == zero2


def test_completion_pin():
    tail = tuple(F11.el(v) for v in (1, 3, 4))
    pair = complete_quadric_pair(tail)
    assert pair == (F11.el(9), F11.el(5))


def test_completion_no_root():
    # tail (1,2,3) over GF(7): the completing discriminant is 6, a
    # nonsquare, so no pair exists
    f7 = field_make(7)
    tail = tuple(f7.el(v) for v in (1, 2, 3))
    assert complete_quadric_pair(tail) is None


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_completion_lands_on_quadric(seed):
    # any completed pair makes all power sums vanish
    from quadcert.rng import SplitMix64

    rng = SplitMix64(seed)
    ctx = field_make(11)
    tail = tuple(ctx.element_at(rng.below(11)) for _ in range(3))
    pair = complete_quadric_pair(tail)
    if pair is not None:
        a = AmbientPoint(pair + tail)
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
        assert smoothness_rank(a) == 2


def test_default_budget_scales_with_field():
    assert default_max_tries(F11) == 64 * 11
    assert default_max_tries(field_make(3, 4)) == 64 * 81


def test_point_validation():
    f7 = field_make(7)
    with pytest.raises(ValueError):
        AmbientPoint((F11.el(1), f7.el(1)))  # mixed fields
    with pytest.raises(ValueError):
        AmbientPoint((F11.el(1),))  # too short


def test_point_to_json():
    assert pt(F11, (9, 5, 1, 3, 4)).to_json() == [[9], [5], [1], [3], [4]]
