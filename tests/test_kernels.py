"""The integer kernels behind codes, against the schoolbook reference.

`gf` holds an element as its packed integer; it adds, subtracts, negates,
multiplies, squares, raises to powers and takes square roots on that integer
(products by Kronecker substitution), and moves points as codes. Each is
pinned here to `_fieldref`, which works on coefficient tuples with the k^2
product loop. The fields cover a prime field, the table-free extension
fields the sampler uses, and the widest packings the package takes (GF(3^12)
has the most digits, GF(13^5) and GF(1021^2) the widest ones); every field
includes its top element, with every coefficient p - 1, where each product
digit reaches its bound. A last test makes the tuple decoder raise and runs
every certificate step and the block solver with it.
"""

from itertools import repeat

import pytest
from hypothesis import given, strategies as st

import _fieldref as ref
from _docref import written
from _jacobianref import gradient_matrix
from _laneref import kernel_basis
from _points import point
from quadcert.actions import AffineMap, affine_act, invariance_report, random_affine
from quadcert.compression import faithfulness_witness, rank_certificate
from quadcert import gf
from quadcert.gf import FieldCtx, _Kernel, field_make
from quadcert.profile import binary_profile
from quadcert.quadric import (
    AmbientPoint,
    complete_quadric_pair,
    power_sums,
    sample_quadric_point,
)
from quadcert.rng import SplitMix64
from quadcert.trace_system import evaluate_system, lift_block_solution, solve_block_system

KERNEL_FIELDS = [(7, 1), (3, 4), (5, 4), (3, 12), (13, 5), (1021, 2)]


def _top(ctx):
    return ctx.el([ctx.p - 1] * ctx.k)


def _elements(ctx, count, seed):
    """count seeded elements, the top element, one and zero first."""
    rng = SplitMix64(seed)
    head = [_top(ctx), ctx.one, ctx.zero]
    return head + [ctx.element_at(rng.below(ctx.size)) for _ in range(count)]


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_sum_difference_and_negation_match_coefficientwise(p, k):
    # the top element minus zero puts 2p - 1 in every digit before `_norm`
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 5 * p + k)
    for a in xs:
        assert (-a).coeffs == ref.neg(ctx, a.coeffs)
        assert (ctx.one - a).coeffs == ref.sub(ctx, ctx.one.coeffs, a.coeffs)
        for b in xs[:8]:
            assert (a + b).coeffs == ref.add(ctx, a.coeffs, b.coeffs)
            assert (a - b).coeffs == ref.sub(ctx, a.coeffs, b.coeffs)


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


# --- lane vectors ------------------------------------------------------------


def decoded(u) -> list:
    """The lanes of the lane vector u as field elements, read by index."""
    return [u[i] for i in range(len(u))]


@pytest.mark.parametrize("lanes", [1, 2, 13, 1100])
@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_lane_vectors_match_element_arithmetic(p, k, lanes):
    # a lane vector of seeded elements after the top element and zero,
    # against the element loop: vector x scalar, vector +- vector, vector +-
    # scalar in every lane, and the vector of a scalar in every lane minus
    # each lane; the top element times the top lane reaches the digit bound
    # before the folds
    ctx = field_make(p, k)
    rng = SplitMix64(lanes * p + k)
    codes = ([ctx.size - 1, 0] + rng.draw(ctx.size, lanes))[:lanes]
    others = rng.draw(ctx.size, lanes)
    xs, ys = list(map(ctx.element_at, codes)), list(map(ctx.element_at, others))
    u, v = ctx.lanes(codes), ctx.lanes(iter(others))
    assert len(u) == lanes and decoded(u) == xs and decoded(v) == ys
    for a in _elements(ctx, 3, lanes + p):
        assert decoded(u * a) == [x * a for x in xs]
        assert decoded(u + a) == [x + a for x in xs]
        assert decoded(u - a) == [x - a for x in xs]
        constant = ctx.lanes([ctx.element_index(a)] * lanes)
        assert decoded(constant - u) == [a - x for x in xs]
        assert decoded(constant) == [a] * lanes
    assert decoded(u + v) == [x + y for x, y in zip(xs, ys)]
    assert decoded(u - v) == [x - y for x, y in zip(xs, ys)]
    assert decoded(u - u) == decoded(ctx.lanes([0] * lanes)) == [ctx.zero] * lanes
    assert u and not (u - u)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 4), (1021, 2)])
def test_first_nonzero_names_the_first_nonzero_lane(p, k):
    # a single nonzero lane at each position, with the top element and one,
    # and a vector nonzero from some lane on
    ctx = field_make(p, k)
    lanes = 13
    assert ctx.lanes([0] * lanes).first_nonzero() is None
    for code in (1, ctx.size - 1):
        for i in range(lanes):
            codes = [0] * lanes
            codes[i] = code
            assert ctx.lanes(codes).first_nonzero() == i
            assert ctx.lanes(codes[:i] + [code] * (lanes - i)).first_nonzero() == i


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_lane_indexing_matches_iteration(p, k):
    # every lane by index, the top element first and last, as the element
    # of its code; an index past either end raises
    ctx = field_make(p, k)
    codes = [ctx.size - 1, 0, 1] + SplitMix64(p + k).draw(ctx.size, 10) + [ctx.size - 1]
    for u in (ctx.lanes(codes), ctx.lanes(codes[:1])):
        lanes = len(u)
        assert decoded(u) == list(map(ctx.element_at, codes[:lanes]))
        for i in (lanes, lanes + 1, -1):
            with pytest.raises(IndexError):
                u[i]


def test_lane_vectors_refuse_other_shapes_and_fields():
    f81, f7 = field_make(3, 4), field_make(7)
    u = f81.lanes([1, 2, 3])
    with pytest.raises(ValueError):
        u + f81.lanes([1, 2])
    with pytest.raises(ValueError):
        u - f7.lanes([1, 2, 3])
    with pytest.raises(ValueError):
        u * f7.one
    with pytest.raises(TypeError):
        u * u


# (p, k): for p = 3, 31 and 1021 the widest digit bound 2^b, b the bit length
# of k p^2, over the kernel's fields
NORM_FIELDS = [(3, 12), (31, 1), (1021, 2)]


@pytest.mark.parametrize("p,k", NORM_FIELDS)
def test_barrett_norm_is_exact_on_every_digit_below_its_bound(p, k):
    # every digit value 0 .. 2^b - 1, in every digit of 1100 lanes at a time
    # (the kernel a lane vector of that length runs), against d mod p; the
    # one-lane _norm of FieldCtx on the values around each multiple of p
    ctx = field_make(p, k)
    bound, size = 1 << (k * p * p).bit_length(), ctx._width // 8
    kernel = _Kernel(ctx, 1100, ctx._folds)
    chunk = 1100 * (2 * k - 1)

    def pack(values):
        return b"".join(map(int.to_bytes, values, repeat(size), repeat("little")))

    for start in range(0, bound, chunk):
        digits = range(start, min(start + chunk, bound))
        reduced = kernel.norm(int.from_bytes(pack(digits), "little"))
        assert reduced.to_bytes(size * len(digits), "little") == pack(d % p for d in digits)
    for d in range(0, bound, p):
        for e in (d - 1, d, d + 1):
            if 0 <= e < bound:
                assert ctx._norm(e) == e % p


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_codes_pack_and_read_back(p, k):
    # codes to coefficient columns, and a packed element, a sum of two and a
    # negation back to coefficients and codes, each through the mod-p digits
    ctx = field_make(p, k)
    xs = _elements(ctx, 30, 19 * p + k)
    codes = [ctx.element_index(x) for x in xs]
    columns = ref.columns(ctx, codes)
    assert list(zip(*reversed(columns))) == [x.coeffs for x in xs]
    packed = ctx._pack_codes(codes, ctx._width)
    for x, y, cx, px in zip(xs, reversed(xs), codes, packed):
        assert px == ctx._pack(x.coeffs)
        assert ctx._unpack(px) == x.coeffs
        assert ctx._code(px) == cx
        assert ctx._code(px + ctx._pack(y.coeffs)) == ctx.element_index(x + y)
        assert ctx._code(ctx._kmul(px, p - 1)) == ctx.element_index(-x)


# the widest one-digit chunks (p > 256), and two primes whose digits each
# take a chunk of their own
TABLE_FIELDS = KERNEL_FIELDS + [(31, 2), (17, 3)]
WIDTHS = (9, 13, 16, 24, None)


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
@given(data=st.data())
def test_digit_tables_convert_like_the_digit_by_digit_oracle(p, k, data):
    # every width, from a list and from an iterator, with the least and the
    # greatest code always among the codes
    ctx = field_make(p, k)
    codes = [0, ctx.size - 1] + data.draw(st.lists(st.integers(0, ctx.size - 1), max_size=40))
    for width in WIDTHS + (ctx._width,):
        expected = ref.coefficient_rows(ctx, codes) if width is None else ref.pack_codes(ctx, codes, width)
        assert ctx._pack_codes(codes, width) == expected
        assert ctx._pack_codes(iter(codes), width) == expected
    assert ctx.coefficient_rows(iter(codes)) == ref.coefficient_rows(ctx, codes)


@pytest.mark.parametrize(
    "p,k,chunks",
    [(7, 1, [1]), (3, 4, [4]), (3, 5, [5]), (3, 12, [5, 5, 2]), (5, 4, [3, 1]),
     (13, 5, [2, 2, 1]), (17, 3, [1, 1, 1]), (1021, 2, [1, 1])],
)
def test_codes_split_into_chunks_of_at_most_256_values(p, k, chunks):
    # the most significant digits first; one digit a chunk once p^2 > 256
    assert [digits for digits, _, _, _ in field_make(p, k)._chunks] == chunks


def test_prime_fields_build_no_digit_table_and_none_is_oversized(monkeypatch):
    # over GF(p) a code is its own packing, whatever p; a table holds p^d
    # entries, at most 256 unless one digit alone takes more
    monkeypatch.setattr(gf, "_DIGIT_TABLES", {})
    for p in (7, 31, 1021, 1048573):
        ctx = field_make(p)
        codes = [0, 1, p - 1]
        assert ctx._pack_codes(codes, 16) == codes
        assert ctx.coefficient_rows(codes) == [(0,), (1,), (p - 1,)]
        assert ctx.sums(codes) == (ctx.el(0), ctx.el(2))
        ctx.lanes(codes)
    assert gf._DIGIT_TABLES == {}
    for p, k in TABLE_FIELDS:
        ctx = field_make(p, k)
        codes = [0, ctx.size - 1]
        for width in WIDTHS:
            ctx._pack_codes(codes, width)
        ctx.sums(codes)
    assert gf._DIGIT_TABLES
    for (p, digits, width), table in gf._DIGIT_TABLES.items():
        assert len(table) == p**digits <= max(256, p)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_coefficient_rows_are_the_elements_json(p, k):
    ctx = field_make(p, k)
    rng = SplitMix64(31 * p + k)
    codes = [0, ctx.size - 1] + rng.draw(ctx.size, 40)
    assert ctx.coefficient_rows(codes) == [tuple(written(ctx.element_at(c))) for c in codes]
    assert ctx.coefficient_rows(iter(codes)) == ctx.coefficient_rows(codes)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_sums_count_repeated_codes_like_multiplicities(p, k):
    # mults default to one and codes may repeat: the sums are linear
    ctx = field_make(p, k)
    rng = SplitMix64(37 * p + k)
    codes = rng.draw(ctx.size, 12)
    mults = [rng.below(50) for _ in codes]
    repeated = [c for c, m in zip(codes, mults) for _ in range(m)]
    xs = [ctx.element_at(c) for c in repeated]
    expected = (sum(xs, ctx.zero), sum((x * x for x in xs), ctx.zero))
    assert ctx.sums(codes, mults) == ctx.sums(repeated) == expected
    assert ctx.sums([]) == (ctx.zero, ctx.zero)


@pytest.mark.parametrize("p,k", [(7, 1), (3, 4)])
def test_sums_take_any_integer_multiplicity(p, k):
    # a negative multiplicity m counts -m copies subtracted, against the
    # element loop of repeated additions and subtractions
    ctx = field_make(p, k)
    xs = _elements(ctx, 3, 41 * p + k)
    codes = [ctx.element_index(x) for x in xs]

    def times(m, x):
        out = ctx.zero
        for _ in range(abs(m)):
            out = out + x if m > 0 else out - x
        return out

    for m in range(-3 * p, 3 * p):
        for i in range(len(xs)):
            mults = [m if j == i else j - 2 for j in range(len(xs))]
            expected = (
                sum(map(times, mults, xs), ctx.zero),
                sum(map(times, mults, (x * x for x in xs)), ctx.zero),
            )
            assert ctx.sums(codes, mults) == expected


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
        assert ctx.affine_codes(alpha, beta, codes) == expected


# --- points as codes ------------------------------------------------------------


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_point_round_trips(p, k):
    # codes -> coords -> codes and coords -> codes -> coords, with repeated
    # coordinates (a lift's shape) and the top element
    ctx = field_make(p, k)
    rng = SplitMix64(31 * p + k)
    codes = tuple(rng.below(ctx.size) for _ in range(12)) + (ctx.size - 1,) * 3 + (0, 0)
    a = AmbientPoint(ctx, codes)
    assert a.n == len(codes)
    assert point(a.coords).codes == codes
    assert point(a.coords) == a
    assert a.coords == tuple(map(ctx.element_at, codes))
    assert written(a) == [list(ctx.element_at(c).coeffs) for c in codes]
    b = point(map(ctx.element_at, codes))
    assert AmbientPoint(ctx, b.codes).coords == b.coords


def test_point_validates_its_codes():
    ctx = field_make(3, 2)
    assert AmbientPoint(ctx, [1, 2]).codes == (1, 2)  # held as a tuple
    with pytest.raises(ValueError):
        AmbientPoint(ctx, (1,))
    with pytest.raises(ValueError):
        AmbientPoint(ctx, (1, 9))
    with pytest.raises(ValueError):
        AmbientPoint(ctx, (-1, 2))


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
    # the sampler hands complete_quadric_pair the drawn codes; they complete
    # to the codes of the pair that field arithmetic on the same elements gives
    ctx = field_make(3, 4)
    rng = SplitMix64(5)
    half = ctx.el(2).inverse()
    for _ in range(20):
        codes = tuple(rng.draw(ctx.size, 6))
        tail = tuple(map(ctx.element_at, codes))
        s, q = sum(tail, ctx.zero), sum((x * x for x in tail), ctx.zero)
        root = (-(s * s) - q - q).sqrt()
        pair = None if root is None else ((-s + root) * half, (-s - root) * half)
        expected = pair and tuple(map(ctx.element_index, pair))
        assert complete_quadric_pair(ctx, codes) == expected


# --- the closed-form tangent basis -------------------------------------------------


def _on_quadric_points(ctx, n, seed):
    """Sampled points, and points of the quadric whose first coordinates
    repeat (so the second pivot sits further right), and constant ones."""
    a = sample_quadric_point(n, ctx, seed)
    yield a
    # x_1 = x_2 = x_3 = t: complete a tail that starts t, t, t
    rng = SplitMix64(seed)
    for _ in range(200):
        t = rng.below(ctx.size)
        tail = (t, t, t) + tuple(rng.below(ctx.size) for _ in range(n - 5))
        pair = complete_quadric_pair(ctx, tail)
        if pair is not None:
            yield AmbientPoint(ctx, tail + pair)
            break
    yield AmbientPoint(ctx, a.codes[2:] + a.codes[:2])
    if n % ctx.p == 0:
        yield AmbientPoint(ctx, (ctx.element_index(ctx.one),) * n)
    yield AmbientPoint(ctx, (0,) * n)


def _closed_form_tangent(a):
    """The tangent space ker [1; 2x] with no elimination: the pivots are
    column 1 and the first j with x_j != x_1, if any, and free column c
    gives e_c - (x_j - x_c)/(x_j - x_1) e_1 - (x_c - x_1)/(x_j - x_1) e_j."""
    n, ctx, xs = a.n, a.ctx, a.coords
    j = next((c for c in range(1, n) if a.codes[c] != a.codes[0]), 0)  # 0: no j
    inv = (xs[j] - xs[0]).inverse() if j else ctx.zero
    basis = []
    for c in range(1, n):
        if c != j:
            t, v = (xs[c] - xs[0]) * inv, [ctx.zero] * n
            v[j] = -t  # with no j this writes column 1, set next
            v[0], v[c] = t - ctx.one, ctx.one
            basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("p,k,n", [(7, 1, 7), (3, 4, 9), (5, 4, 10), (11, 2, 11), (13, 2, 8)])
def test_tangent_basis_is_the_echelon_kernel(p, k, n):
    ctx = field_make(p, k)
    for seed in range(3):
        for a in _on_quadric_points(ctx, n, seed):
            assert kernel_basis(gradient_matrix(a)) == _closed_form_tangent(a)


# --- no coefficient tuple on the arithmetic path ------------------------------------


def test_certificates_and_solver_never_decode_an_element(monkeypatch):
    # with the fields built first and the tuple decoder made to raise, every
    # certificate step and the block solver still run: they work on packed
    # integers and codes alone
    fields = [field_make(p, k) for p, k in [(3, 4), (5, 4), (31, 1), (3, 12), (13, 3)]]
    cases = [(77, 11), (15, 3), (4095, 13)]
    for _, p in cases:  # GF(p) and GF(p^2), whichever the solver's criterion names
        field_make(p, 1)
        field_make(p, 2)

    def forbidden(*args):
        raise AssertionError("the arithmetic path must not decode an element")

    monkeypatch.setattr(FieldCtx, "_unpack", forbidden)
    for ctx in fields:
        a = sample_quadric_point(10, ctx, 1)
        assert power_sums(a) == (ctx.zero, ctx.zero)
        assert rank_certificate(a).satisfied
        assert faithfulness_witness(a)
        assert invariance_report(a, random_affine(ctx, SplitMix64(2))).identities_hold
    for n, p in cases:
        prof = binary_profile(n)
        sol = solve_block_system(prof, p)
        assert evaluate_system(sol) == (sol.ctx.zero, sol.ctx.zero)
        assert lift_block_solution(sol).n == n
