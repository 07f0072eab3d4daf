"""The integer kernels behind codes, against the schoolbook reference.

`gf` multiplies, squares, raises to powers and takes square roots by
Kronecker substitution on packed integers, and moves points as codes. Each is
pinned here to `_fieldref`, which works on coefficient tuples with the k^2
product loop. The fields cover a prime field, the table-free extension
fields the sampler uses, and the widest packings the package takes (GF(3^12)
has the most digits, GF(13^5) and GF(1021^2) the widest ones); every field
includes its top element, with every coefficient p - 1, where each product
digit reaches its bound.
"""

import pytest

import _fieldref as ref
from quadcert.actions import AffineMap, affine_act, invariance_report, random_affine
from quadcert.gf import field_make
from quadcert.linalg import kernel_basis
from quadcert.quadric import (
    AmbientPoint,
    complete_quadric_pair,
    power_sums,
    sample_quadric_point,
    smoothness_matrix,
    tangent_basis,
)
from quadcert.rng import SplitMix64

KERNEL_FIELDS = [(7, 1), (3, 4), (5, 4), (3, 12), (13, 5), (1021, 2)]


def _top(ctx):
    return ctx.el([ctx.p - 1] * ctx.k)


def _elements(ctx, count, seed):
    """count seeded elements, the top element, one and zero first."""
    rng = SplitMix64(seed)
    head = [_top(ctx), ctx.one, ctx.zero]
    return head + [ctx.element_at(rng.below(ctx.size)) for _ in range(count)]


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_product_and_square_match_schoolbook(p, k):
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 7 * p + k)
    for a in xs:
        assert (a * a).coeffs == ref.mul(ctx, a.coeffs, a.coeffs)
        assert (a**2).coeffs == ref.mul(ctx, a.coeffs, a.coeffs)
        for b in xs[:8]:
            assert (a * b).coeffs == ref.mul(ctx, a.coeffs, b.coeffs)
            packed = ctx._kmul(ctx._pack(a.coeffs), ctx._pack(b.coeffs))
            assert ctx._unpack(packed) == ref.mul(ctx, a.coeffs, b.coeffs)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_power_and_inverse_match_schoolbook(p, k):
    ctx = field_make(p, k)
    rng = SplitMix64(11 * p + k)
    for a in _elements(ctx, 10, 13 * p + k):
        for e in (0, 1, 2, 3, ctx.size - 2, rng.below(ctx.size)):
            assert (a**e).coeffs == ref.power(ctx, a.coeffs, e)
        if not a.is_zero():
            assert a.inverse().coeffs == ref.power(ctx, a.coeffs, ctx.size - 2)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_sqrt_matches_schoolbook_tonelli_shanks(p, k):
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 17 * p + k)
    squares = [a * a for a in xs]
    for a in xs + squares + [-x for x in squares]:
        root = a.sqrt()
        expected = ref.sqrt(ctx, a.coeffs)
        assert (None if root is None else root.coeffs) == expected
        if root is not None:
            assert root * root == a


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_codes_pack_and_read_back(p, k):
    # codes to coefficient columns, and a packed element, a sum of two and a
    # negation back to coefficients and codes, each through the mod-p digits
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 19 * p + k)
    codes = [ctx.element_index(x) for x in xs]
    columns = ctx._columns(codes)
    assert list(zip(*reversed(columns))) == [x.coeffs for x in xs]
    packed = ctx._pack_codes(codes, ctx._width)
    for x, y, cx, px in zip(xs, reversed(xs), codes, packed):
        assert px == ctx._pack(x.coeffs)
        assert ctx._unpack(px) == x.coeffs
        assert ctx._code(px) == cx
        assert ctx._code(px + ctx._pack(y.coeffs)) == ctx.element_index(x + y)
        assert ctx._code(ctx._kmul(px, p - 1)) == ctx.element_index(-x)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_affine_codes_match_field_operations(p, k):
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 23 * p + k)
    codes = [ctx.element_index(x) for x in xs]
    rng = SplitMix64(29 * p + k)
    for alpha, beta in [(_top(ctx), _top(ctx)), (ctx.one, ctx.zero)] + [
        (g.alpha, g.beta) for g in (random_affine(ctx, rng) for _ in range(5))
    ]:
        expected = [ctx.element_index(alpha * x + beta) for x in xs]
        assert ctx._affine_codes(alpha, beta, codes) == expected


# --- points as codes ------------------------------------------------------------


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_point_round_trips(p, k):
    # codes -> coords -> codes and coords -> codes -> coords, with repeated
    # coordinates (a lift's shape) and the top element
    ctx = field_make(p, k)
    rng = SplitMix64(31 * p + k)
    codes = tuple(rng.below(ctx.size) for _ in range(12)) + (ctx.size - 1,) * 3 + (0, 0)
    a = AmbientPoint.from_codes(ctx, codes)
    assert a.n == len(codes)
    assert AmbientPoint(a.coords).codes == codes
    assert AmbientPoint(a.coords) == a
    assert a.coords == tuple(map(ctx.element_at, codes))
    assert a.to_json() == [list(ctx.element_at(c).coeffs) for c in codes]
    b = AmbientPoint(tuple(map(ctx.element_at, codes)))
    assert AmbientPoint.from_codes(ctx, b.codes).coords == b.coords


def test_from_codes_validates():
    ctx = field_make(3, 2)
    assert AmbientPoint.from_codes(ctx, [1, 2]).codes == (1, 2)  # held as a tuple
    with pytest.raises(ValueError):
        AmbientPoint.from_codes(ctx, (1,))
    with pytest.raises(ValueError):
        AmbientPoint.from_codes(ctx, (1, 9))
    with pytest.raises(ValueError):
        AmbientPoint.from_codes(ctx, (-1, 2))


def _moved_oracle(g, a):
    """Power sums of g a with one field product and sum per coordinate."""
    s1 = s2 = g.ctx.zero
    for x in a.coords:
        y = g.alpha * x + g.beta
        s1, s2 = s1 + y, s2 + y * y
    return s1, s2


@pytest.mark.parametrize("n,p,k", [(5, 7, 2), (128, 3, 9), (128, 5, 7), (512, 3, 12), (512, 13, 5)])
def test_invariance_report_sums_are_those_of_the_moved_point(n, p, k):
    ctx = field_make(p, k)
    rng = SplitMix64(n + p + k)
    for seed in range(2):
        a = sample_quadric_point(n, ctx, seed)
        for g in (random_affine(ctx, rng), AffineMap(_top(ctx), _top(ctx))):
            report = invariance_report(a, g)
            moved = power_sums(affine_act(g, a))
            assert (report.s1_after, report.p2_after) == moved == _moved_oracle(g, a)


def test_sampler_completes_from_codes_as_from_elements():
    # the sampler hands complete_quadric_pair a point of codes; a tuple of
    # the same elements gives the same pair
    ctx = field_make(3, 4)
    rng = SplitMix64(5)
    for _ in range(20):
        codes = tuple(rng.draw(ctx.size, 6))
        tail = tuple(map(ctx.element_at, codes))
        assert complete_quadric_pair(AmbientPoint.from_codes(ctx, codes)) == complete_quadric_pair(tail)


# --- the closed-form tangent basis -------------------------------------------------


def _on_quadric_points(ctx, n, seed):
    """Sampled points, and points of the quadric whose first coordinates
    repeat (so the second pivot sits further right), and constant ones."""
    a = sample_quadric_point(n, ctx, seed)
    xs = a.coords
    yield a
    # x_1 = x_2 = x_3 = t: complete a tail that starts t, t, t
    rng = SplitMix64(seed)
    for _ in range(200):
        t = ctx.element_at(rng.below(ctx.size))
        tail = (t, t, t) + tuple(ctx.element_at(rng.below(ctx.size)) for _ in range(n - 5))
        pair = complete_quadric_pair(tail)
        if pair is not None:
            yield AmbientPoint(tail + pair)
            break
    yield AmbientPoint(xs[2:] + xs[:2])
    if n % ctx.p == 0:
        yield AmbientPoint((ctx.one,) * n)
    yield AmbientPoint((ctx.zero,) * n)


@pytest.mark.parametrize("p,k,n", [(7, 1, 7), (3, 4, 9), (5, 4, 10), (11, 2, 11), (13, 2, 8)])
def test_tangent_basis_is_the_echelon_kernel(p, k, n):
    ctx = field_make(p, k)
    for seed in range(3):
        for a in _on_quadric_points(ctx, n, seed):
            assert tangent_basis(a) == kernel_basis(smoothness_matrix(a))


def test_tangent_basis_builds_no_tables_over_a_large_prime_field():
    ctx = field_make(1048573)
    a = sample_quadric_point(10, ctx, 1)
    basis = tangent_basis(a)
    assert len(basis) == 8
    assert ctx._tables is None
    m = smoothness_matrix(a)
    for v in basis:
        for i in range(2):
            assert sum((x * y for x, y in zip(m.row(i), v)), ctx.zero).is_zero()
