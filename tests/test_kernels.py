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
from _points import expanded, point
from quadcert.actions import AffineMap, affine_act, invariance_report, random_affine
from quadcert.compression import faithfulness_witness, rank_certificate
from quadcert.errors import NotOnQuadricError
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


@pytest.mark.parametrize("p,k", [(1021, 2), (599, 2), (3, 10)])
def test_first_sqrt_tests_few_candidates(monkeypatch, p, k):
    # the nonresidue scan starts at code p^(k-1), the elements 1 + ..., and
    # finds one among its first candidates; the codes below are often all
    # squares (GF(1021^2)'s first nonresidue in code order is code 1027)
    ctx = FieldCtx(p, k, field_make(p, k).modulus)  # a fresh context
    half, candidates = (ctx.size - 1) // 2, []
    power = FieldCtx._kpow

    def spy(self, x, e):
        if e == half:
            candidates.append(x)
        return power(self, x, e)

    monkeypatch.setattr(FieldCtx, "_kpow", spy)
    a = ctx.el([2, 1])
    root = (a * a).sqrt()
    assert root in (a, -a) and len(candidates) <= 16


def _counted_products(monkeypatch, ctx, step):
    """The kernel products `step()` takes on ctx, and its result."""
    calls, kmul = [], ctx._kmul

    def counted(a, b):
        calls.append((a, b))
        return kmul(a, b)

    monkeypatch.setattr(ctx, "_kmul", counted)
    out = step()
    monkeypatch.undo()
    return calls, out


@pytest.mark.parametrize("p,k,products", [(5, 4, 15), (3, 12, 30)])
def test_a_power_takes_bit_length_plus_popcount_less_two_products(monkeypatch, p, k, products):
    # e = q - 2 read from its top bit: bitlen(e) - 1 squarings and
    # popcount(e) - 1 products, none of them by one and no square left
    # unread (623 = 0b1001101111, 531439 = 0b10000001101111101111)
    ctx = field_make(p, k)
    x = ctx.element_at(ctx.size - 7)
    calls, power = _counted_products(monkeypatch, ctx, lambda: x ** (ctx.size - 2))
    assert len(calls) == products and 1 not in {a for a, _ in calls}
    assert power.coeffs == ref.power(ctx, x.coeffs, ctx.size - 2)


@pytest.mark.parametrize("p,k", [(7, 1), (1048573, 1), (5, 4), (13, 5), (3, 12)])
def test_an_inverse_takes_k_less_one_products(monkeypatch, p, k):
    # the norm chain: k - 2 products of Frobenius images give x^(r-1) and
    # one more the norm x^r; none over GF(p), and none by one. The first
    # inverse of a field builds its Frobenius table, so one is taken first
    ctx = field_make(p, k)
    ctx.element_at(ctx.size - 1).inverse()
    for code in (ctx.size - 2, 1, ctx.size - 1):
        x = ctx.element_at(code)
        calls, inverse = _counted_products(monkeypatch, ctx, x.inverse)
        assert len(calls) == k - 1 and 1 not in {a for a, _ in calls}
        assert inverse.coeffs == ref.power(ctx, x.coeffs, ctx.size - 2)


@pytest.mark.parametrize("p,k", [(3, 4), (5, 2), (7, 1), (3, 12), (1021, 2), (1048573, 1)])
def test_the_norm_inverse_is_the_fermat_power(p, k):
    # Fermat's a^(q-2) through `_kpow` is the oracle of the inverse through
    # the norm: every unit of the three small fields, and 200 seeded units
    # of the large ones after the prime-subfield elements 1, 2 and p - 1
    # (c has the code c p^(k-1)) and the top element
    ctx = field_make(p, k)
    codes = range(1, ctx.size)
    if ctx.size > 1000:
        rng = SplitMix64(p + k)
        head = ctx.size // p  # the code of the element 1
        codes = [head, 2 * head, (p - 1) * head, ctx.size - 1] + [1 + rng.below(ctx.size - 1) for _ in range(200)]
    for a in ctx.elements_at(codes):
        inverse = a.inverse()
        assert inverse == a ** (ctx.size - 2)
        assert a * inverse == ctx.one


def test_no_fresh_field_builds_a_frobenius_table_before_an_inverse(monkeypatch):
    # the table of the packed x^(jp) is built on a field's first inverse:
    # `_smallest_irreducible` builds a ring per candidate modulus, and none
    # of them, nor the field it returns, builds one
    built, init = [], FieldCtx.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(FieldCtx, "__init__", recording)
    for p, k in [(3, 12), (5, 4), (13, 5), (7, 1)]:
        del built[:]
        ctx = gf._context.__wrapped__(p, k)  # a fresh context, past the cache
        assert len(built) > (k > 1) and all(ring._frob is None for ring in built)
        x = ctx.element_at(ctx.size - 1)
        assert x * x.inverse() == ctx.one
        assert (ctx._frob is None) == (k == 1)


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
TABLE_FIELDS = KERNEL_FIELDS + [(31, 2), (17, 3), (11, 3)]
WIDTHS = (9, 13, 16, 24, ", ")


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
@given(data=st.data())
def test_digit_tables_convert_like_the_digit_by_digit_oracle(p, k, data):
    # every width, packings and texts, from a list and from an iterator, with
    # the least and the greatest code always among the codes; a text is the
    # oracle's coefficient row joined by the separator, at two indents
    ctx = field_make(p, k)
    codes = [0, ctx.size - 1] + data.draw(st.lists(st.integers(0, ctx.size - 1), max_size=40))
    for width in WIDTHS + (ctx._width, ",\n      "):
        if isinstance(width, str):
            expected = [width.join(map(str, row)) for row in ref.coefficient_rows(ctx, codes)]
        else:
            expected = ref.pack_codes(ctx, codes, width)
        assert ctx._pack_codes(codes, width) == expected
        assert ctx._pack_codes(iter(codes), width) == expected
    texts = [" ".join(map(str, row)) for row in ref.coefficient_rows(ctx, codes)]
    assert ctx.coefficient_texts(iter(codes), " ") == texts


@pytest.mark.parametrize(
    "p,k,chunks",
    [(7, 1, [1]), (3, 4, [4]), (3, 5, [5]), (3, 12, [5, 5, 2]), (5, 4, [3, 1]),
     (13, 5, [2, 2, 1]), (17, 3, [1, 1, 1]), (1021, 2, [1, 1])],
)
def test_codes_split_into_chunks_of_at_most_256_values(p, k, chunks):
    # the most significant digits first; one digit a chunk once p^2 > 256
    assert [digits for digits, _, _, _ in field_make(p, k)._chunks] == chunks


def test_prime_fields_build_no_digit_table_and_none_is_oversized(monkeypatch):
    # over GF(p) a code is its own packing, and its str its text, whatever p;
    # a table holds p^d entries, at most 256 unless one digit alone takes more
    read, real = [], gf._digit_table

    def recording(p, digits, width):
        read.append((p, digits, width))
        return real(p, digits, width)

    monkeypatch.setattr(gf, "_digit_table", recording)
    for p in (7, 31, 1021, 1048573):
        ctx = field_make(p)
        codes = [0, 1, p - 1]
        assert ctx._pack_codes(codes, 16) == codes
        assert ctx.coefficient_texts(codes, ", ") == ["0", "1", str(p - 1)]
        assert ctx.sums(codes) == (ctx.el(0), ctx.el(2))
        ctx.lanes(codes)
        assert read == []  # before a larger p builds a table of p entries
    for p, k in TABLE_FIELDS:
        ctx = field_make(p, k)
        codes = [0, ctx.size - 1]
        for width in WIDTHS:
            ctx._pack_codes(codes, width)
        ctx.sums(codes)
    assert read
    for p, digits, width in read:
        assert len(real(p, digits, width)) == p**digits <= max(256, p)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_coefficient_rows_are_the_elements_json(p, k):
    # each code's coefficient text is its element's written vector, its
    # items joined by the separator
    ctx = field_make(p, k)
    rng = SplitMix64(31 * p + k)
    codes = [0, ctx.size - 1] + rng.draw(ctx.size, 40)
    rows = [",".join(map(str, written(ctx.element_at(c)))) for c in codes]
    assert ctx.coefficient_texts(codes, ",") == rows
    assert ctx.coefficient_texts(iter(codes), ",") == rows


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
    s1 = s2 = g.alpha.ctx.zero
    for x in a.coords:
        y = g.alpha * x + g.beta
        s1, s2 = s1 + y, s2 + y * y
    return s1, s2


def _quadric_point(ctx, n, seed):
    """A point of the quadric from a seeded tail whose codes may repeat, so
    that n may come near the field size."""
    rng = SplitMix64(seed)
    while True:
        tail = tuple(rng.draw(ctx.size, n - 2))
        pair = complete_quadric_pair(ctx, tail)
        if pair is not None:
            return AmbientPoint(ctx, pair + tail)


# GF(1048573) has p^2 near 2^40, and n = 4096 over GF(3^8) the most
# coordinates; the top map moves every coordinate's digits to their bound
@pytest.mark.parametrize(
    "n,p,k",
    [(5, 7, 2), (128, 3, 9), (128, 5, 7), (512, 3, 12), (512, 13, 5), (5, 1048573, 1), (4096, 3, 8)],
)
def test_invariance_report_sums_are_those_of_the_moved_point(n, p, k):
    ctx = field_make(p, k)
    rng = SplitMix64(n + p + k)
    for seed in range(2):
        a = _quadric_point(ctx, n, seed)
        for g in (random_affine(ctx, rng), AffineMap(_top(ctx), _top(ctx))):
            report = invariance_report(a, g)
            moved = power_sums(affine_act(g, a))
            assert (report.s1_after, report.p2_after) == moved == _moved_oracle(g, a)


@pytest.mark.parametrize("n,p,k", [(4096, 3, 8), (200, 13, 5), (5, 1048573, 1)])
def test_moved_sums_at_the_top_digits(n, p, k):
    # n top elements moved by the top map, given as n codes or as one code
    # with multiplicity n: every digit of the moved sums reaches its bound
    # the unmoved pair comes back beside the moved one, weighted alike
    ctx = field_make(p, k)
    top = _top(ctx)
    y, times = top * top + top, ctx.el(n)
    expected = ((times * y, times * y * y), (times * top, times * top * top))
    assert ctx.sums([ctx.size - 1] * n, move=(top, top)) == expected
    assert ctx.sums([ctx.size - 1], [n], move=(top, top)) == expected


def test_invariance_report_moves_no_coordinate(monkeypatch):
    # the moved sums come from the packed kernel: no moved code, no code of
    # any element and no moved point is made
    cases = []
    for ctx in map(field_make, (13, 3, 5), (1, 8, 4)):
        a, g = _quadric_point(ctx, 40, 3), AffineMap(_top(ctx), _top(ctx))
        cases.append((a, g, _moved_oracle(g, a)))

    def forbidden(*args):
        raise AssertionError("the invariance report must not move a coordinate")

    monkeypatch.setattr(FieldCtx, "_code", forbidden)
    monkeypatch.setattr(AmbientPoint, "__init__", forbidden)
    for a, g, moved in cases:
        report = invariance_report(a, g)
        assert (report.s1_after, report.p2_after) == moved


def test_invariance_report_packs_its_codes_once(monkeypatch):
    # the moved sums and the on-quadric precondition come from one packing
    # of the point's codes, and a point off the quadric is still refused
    ctx = field_make(13, 3)
    a, g = _quadric_point(ctx, 40, 3), AffineMap(_top(ctx), _top(ctx))
    off = AmbientPoint(ctx, a.codes[:-1] + ((a.codes[-1] + 1) % ctx.size,))
    widths, pack = [], FieldCtx._pack_codes

    def spy(self, codes, width):
        widths.append(width)
        return pack(self, codes, width)

    monkeypatch.setattr(FieldCtx, "_pack_codes", spy)
    report = invariance_report(a, g)
    assert len(widths) == 1 and report.identities_hold
    with pytest.raises(NotOnQuadricError):
        invariance_report(off, g)


def _digits_below_the_barrett_bound(ctx):
    """A stand-in for ctx._norm that first checks that every digit of its
    argument is below 2^b, b the bit length of k p^2 (`gf` docstring)."""
    norm, w, bound = ctx._norm, ctx._width, 1 << (ctx.k * ctx.p**2).bit_length()

    def checked(x):
        assert x >> w * (2 * ctx.k - 1) == 0
        assert all((x >> w * i) & ((1 << w) - 1) < bound for i in range(2 * ctx.k - 1))
        return norm(x)

    return checked


def test_sampler_completes_from_codes_as_from_elements(monkeypatch):
    # the sampler hands complete_quadric_pair the drawn codes; they complete
    # to the codes of the pair that field arithmetic on the same elements
    # gives, 1/2 the Fermat power. Each field also completes two fixed tails
    # with S = Q = 0, all zeros and p copies of the top element, to (0, 0):
    # there the minus root's digits reach 2p before the scaling by 1/2, so
    # over GF(11) scaling first would hand the reduction 2p (p + 1)/2 = 132,
    # past the Barrett bound 2^7; every reduction of the completion is
    # checked against that bound
    for p, k in [(3, 4), (11, 1), (13, 1), (31, 1), (5, 4), (3, 12), (13, 5)]:
        ctx = field_make(p, k)
        monkeypatch.setattr(ctx, "_norm", _digits_below_the_barrett_bound(ctx))
        rng = SplitMix64(5 * p + k)
        half = ctx.el(2) ** (ctx.size - 2)
        tails = [tuple(rng.draw(ctx.size, 6)) for _ in range(20)]
        for codes in tails + [(0,) * 6, (ctx.size - 1,) * p]:
            tail = ctx.elements_at(codes)
            s, q = sum(tail, ctx.zero), sum((x * x for x in tail), ctx.zero)
            root = (-(s * s) - q - q).sqrt()
            pair = None if root is None else ((-s + root) * half, (-s - root) * half)
            expected = pair and tuple(map(ctx.element_index, pair))
            assert complete_quadric_pair(ctx, codes) == expected
        assert complete_quadric_pair(ctx, (ctx.size - 1,) * p) == (0, 0)


def _pack_calls(monkeypatch, step):
    """The widths of the `_pack_codes` calls that `step()` makes."""
    widths, pack = [], FieldCtx._pack_codes

    def spy(self, codes, width):
        widths.append(width)
        return pack(self, codes, width)

    monkeypatch.setattr(FieldCtx, "_pack_codes", spy)
    step()
    monkeypatch.undo()
    return widths


@pytest.mark.parametrize("p,k", [(13, 3), (31, 1), (3, 12)])
def test_certificate_steps_decode_their_codes_in_one_packing(monkeypatch, p, k):
    # the witness decodes x_1, ..., x_4 and a random map its alpha and beta
    # in one call each, alpha still drawn first; a rank certificate packs
    # three times, for the power sums, for x_1 and x_2, and for the lane
    # vector of x_3, ..., x_n
    ctx = field_make(p, k)
    a = sample_quadric_point(12, ctx, 3)
    assert _pack_calls(monkeypatch, lambda: faithfulness_witness(a)) == [ctx._width]
    assert _pack_calls(monkeypatch, lambda: random_affine(ctx, SplitMix64(2))) == [ctx._width]
    assert len(_pack_calls(monkeypatch, lambda: rank_certificate(a))) == 3
    g, rng = random_affine(ctx, SplitMix64(2)), SplitMix64(2)
    assert g == AffineMap(ctx.element_at(1 + rng.below(ctx.size - 1)), ctx.element_at(rng.below(ctx.size)))


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
        assert expanded(lift_block_solution(sol)).n == n
