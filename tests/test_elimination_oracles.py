"""Exact linear algebra over the field contexts, on matrices given as rows of
elements: the tests' product `_gaussref.matvec`, and the tests' lane
elimination (`_laneref`) pinned to the element-object reference
(`_gaussref`)."""

import pytest
from hypothesis import given, strategies as st

from quadcert.gf import field_make
from _laneref import kernel_basis, rank, restricted_rank
import _gaussref as ref


def mk(ctx, rows):
    return [[ctx.el(v) for v in r] for r in rows]


def test_rank_pins():
    f3 = field_make(3)
    assert rank(mk(f3, [[1, 0], [0, 1]])) == 2
    assert rank(mk(f3, [[0, 0], [0, 0]])) == 0
    assert rank(mk(f3, [[1, 2], [2, 1]])) == 1  # det = -3 = 0 here
    assert rank(mk(f3, [[1, 2], [0, 1]])) == 2
    assert rank(mk(f3, [[1, 2], [2, 4 % 3]])) == 1  # second row = 2 * first


def test_kernel_pin():
    # single equation x + y = 0 over GF(3): kernel spanned by (2, 1)
    f3 = field_make(3)
    basis = kernel_basis(mk(f3, [[1, 1]]))
    assert len(basis) == 1
    assert [e.coeffs[0] for e in basis[0]] == [2, 1]


def test_rref_form():
    # the reference's echelon form, and the lane elimination's kernel, whose
    # free column 1 carries the negated entry 2 of the first pivot row
    f7 = field_make(7)
    m = mk(f7, [[2, 4, 6], [1, 2, 4]])
    r, pivots = ref.rref(m)
    assert pivots == [0, 2]
    assert r == [
        [f7.el(1), f7.el(2), f7.el(0)],
        [f7.el(0), f7.el(0), f7.el(1)],
    ]
    assert kernel_basis(m) == [(f7.el(5), f7.el(1), f7.el(0))]


def test_restricted_rank_validation():
    f3 = field_make(3)
    m = mk(f3, [[1, 0], [0, 1]])
    bad = [(f3.el(1),)]  # wrong vector length
    with pytest.raises(ValueError):
        restricted_rank(m, bad)
    assert restricted_rank(m, []) == 0


def test_matvec():
    f7 = field_make(7)
    m = mk(f7, [[1, 2], [3, 4]])
    v = (f7.el(5), f7.el(6))
    assert ref.matvec(m, v) == (f7.el(3), f7.el(4))  # (17 mod 7, 39 mod 7)
    with pytest.raises(ValueError):
        ref.matvec(m, v[:1])
    with pytest.raises(ValueError):
        ref.matvec([m[0], m[1][:1]], v)


# prime and extension fields, all eliminated on lane vectors, with the
# widest packings the package takes, GF(13^5) and GF(1021^2)
FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (5, 4), (3, 6), (13, 5), (1021, 2)]


def _vectors(draw, ctx, count, length):
    # mostly zeros and ones, so that ranks below full are common
    index = st.one_of(st.integers(0, 1), st.integers(0, ctx.size - 1))
    return [[ctx.element_at(draw(index)) for _ in range(length)] for _ in range(count)]


@st.composite
def matrices(draw, max_dim=5):
    p, k = draw(st.sampled_from(FIELDS))
    ctx = field_make(p, k)
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    return _vectors(draw, ctx, nrows, ncols)


@st.composite
def matrices_with_basis(draw):
    m = draw(matrices())
    count = draw(st.integers(min_value=0, max_value=len(m[0])))
    return m, [tuple(v) for v in _vectors(draw, m[0][0].ctx, count, len(m[0]))]


@given(matrices())
def test_rank_of_transpose(m):
    assert rank(m) == rank(list(zip(*m)))


@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == len(m[0])


@given(matrices())
def test_kernel_vectors_annihilate(m):
    zero = tuple(m[0][0].ctx.zero for _ in m)
    for v in kernel_basis(m):
        assert ref.matvec(m, v) == zero


@given(matrices())
def test_kernel_vectors_independent(m):
    basis = kernel_basis(m)
    if basis:
        assert rank(basis) == len(basis)


@given(matrices_with_basis())
def test_fast_paths_agree_with_generic(case):
    # the lane elimination must match a Gauss-Jordan on the element objects
    # exactly, over prime and extension fields alike: the same kernel basis,
    # with a unit vector at each pivot column and the negated entries at the
    # free ones, fixes the same pivots and the same echelon form
    m, basis = case
    assert rank(m) == ref.rank(m)
    assert kernel_basis(m) == ref.kernel_basis(m)
    assert restricted_rank(m, basis) == ref.restricted_rank(m, basis)


@given(matrices())
def test_rref_is_idempotent(m):
    r, pivots = ref.rref(m)
    r2, pivots2 = ref.rref(r)
    assert r == r2
    assert pivots == pivots2
    assert len(pivots) == rank(m)


@given(matrices())
def test_restricted_rank_bounds(m):
    ctx = m[0][0].ctx
    n = len(m[0])
    # standard basis restricts to the full column space
    std = [
        tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n)
    ]
    assert restricted_rank(m, std) == rank(m)
    half = std[: n // 2]
    rr = restricted_rank(m, half)
    assert rr <= rank(m)
    assert rr <= len(half)


def test_lane_elimination_over_gf729():
    # GF(3^6) has 729 elements; the lane elimination runs at every field size
    ctx = field_make(3, 6)
    x = ctx.el([0, 1])
    m = [[ctx.one, x], [x, x * x]]
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert ref.matvec(m, basis[0]) == (ctx.zero, ctx.zero)


def test_lane_elimination_over_gf81_matches_the_reference():
    # every routine over GF(81), the field elimination once ran through log
    # tables, which the package no longer has: it runs on lane vectors alone
    ctx = field_make(3, 4)
    x = ctx.el([0, 1])
    m = [[ctx.one, x, x * x], [x, x * x, x**3], [ctx.zero, ctx.one, x + ctx.one]]
    basis = [(ctx.one, x, ctx.zero), (ctx.zero, ctx.one, -x)]
    assert rank(m) == ref.rank(m) == 2
    assert kernel_basis(m) == ref.kernel_basis(m)
    assert restricted_rank(m, basis) == ref.restricted_rank(m, basis)
