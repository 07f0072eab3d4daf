"""Finite field arithmetic: frozen values, axioms, canonical choices."""

import functools
import signal
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

from _docref import written
from _fieldref import _poly_divmod_rem, coefficient_rows, smallest_irreducible
from quadcert import gf
from quadcert.actions import AffineMap, affine_act
from quadcert.cli import _field
from quadcert.errors import EvenCharacteristicError, NotPrimeError, UsageError
from quadcert.gf import (
    SIZE_LIMIT,
    FieldCtx,
    FieldElement,
    _is_irreducible,
    _prime_factors,
    field_make,
)
from quadcert.profile import binary_profile, check_hypotheses
from quadcert.quadric import AmbientPoint
from quadcert.rng import SplitMix64
from quadcert.trace_system import BlockSolution, weights_mod_p


# Moduli frozen after cross-checking against an independent
# irreducibility scan (sympy GF construction gave the same
# polynomials).  Coefficients are low degree first.
FROZEN_MODULI = {
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),      # x^2 + 1
    (5, 2): (1, 1, 1),      # x^2 + x + 1
    (3, 4): (1, 0, 1, 1, 1),  # x^4 + x^3 + x^2 + 1
    (7, 1): (0, 1),
    (11, 1): (0, 1),
}
# the larger fields of the golden files and the log-table tests; composite
# k runs the unit step of the irreducibility test. After them, in insertion
# order (the test ids are positional), every other GF(p^k) with
# p in {3, 5, 7, 11, 13} and p^k <= 2^20, among them every field the cli-mix
# workload draws; pinned from the earlier search, which walked all of c_0 = 0
# and tested with its own polynomial product.
FROZEN_LARGER_MODULI = {
    (3, 6): (1, 0, 0, 0, 1, 1, 1),  # x^6 + x^5 + x^4 + 1
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),  # x^12 + x^11 + x^8 + 1
    (5, 4): (1, 0, 1, 1, 1),  # x^4 + x^3 + x^2 + 1
    (13, 2): (1, 3, 1),     # x^2 + 3x + 1
    (3, 3): (1, 0, 2, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (5, 1): (0, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (7, 6): (1, 0, 0, 0, 1, 0, 1),
    (7, 7): (1, 0, 0, 0, 0, 0, 6, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (11, 4): (1, 0, 0, 4, 1),
    (11, 5): (1, 0, 0, 0, 2, 1),
    (13, 1): (0, 1),
    (13, 3): (1, 0, 4, 1),
    (13, 4): (1, 0, 0, 1, 1),
    (13, 5): (1, 0, 0, 0, 8, 1),
}


@pytest.mark.parametrize(
    "key,expected", sorted(FROZEN_MODULI.items()) + list(FROZEN_LARGER_MODULI.items())
)
def test_modulus_frozen(key, expected):
    p, k = key
    assert field_make(p, k).modulus == expected


def test_modulus_matches_the_gcd_search_of_the_reference():
    # every GF(p^k), k >= 2, up to the size limit: the unit test of the
    # package's Rabin step against the gcd on the reference's own arithmetic
    fields = [
        (p, k)
        for p in range(3, 1 << 10)
        if _prime_factors(p) == [p]
        for k in range(2, 20)
        if p**k <= SIZE_LIMIT
    ]
    assert len(fields) == 223
    for p, k in fields:
        assert field_make(p, k).modulus == smallest_irreducible(p, k), (p, k)


def test_modulus_is_deterministic():
    a = field_make(3, 4)
    b = field_make(3, 4)
    assert a is b  # cached
    assert a.modulus == b.modulus


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 4)])
def test_one_context_per_field_however_the_call_is_spelled(p, k):
    spellings = [field_make(p, k), field_make(p, k=k), field_make(p=p, k=k)]
    if k == 1:
        spellings.append(field_make(p))
    assert all(ctx is spellings[0] for ctx in spellings)


def test_construction_rejects_bad_characteristic():
    with pytest.raises(EvenCharacteristicError):
        field_make(2)
    with pytest.raises(EvenCharacteristicError):
        field_make(2, 5)
    with pytest.raises(NotPrimeError):
        field_make(9)
    with pytest.raises(NotPrimeError):
        field_make(15, 2)
    with pytest.raises(ValueError):
        field_make(3, 0)


@pytest.fixture
def fresh_contexts(monkeypatch):
    """`field_make` with an empty context cache for this test alone, so
    every context built before it stays the one of its (p, k)."""
    monkeypatch.setattr(gf, "_context", functools.lru_cache(maxsize=None)(gf._context.__wrapped__))


def test_field_make_refuses_p_against_a_sieve(fresh_contexts):
    # 2 is refused as even, every other non-prime (0, 1 and negatives
    # included) as not prime, and every odd prime is accepted
    top = 3000
    sieve = [False, False] + [True] * (top - 2)
    for d in range(2, int(top**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, top, d))
    for p in range(-3, top):
        if p == 2:
            with pytest.raises(EvenCharacteristicError):
                field_make(p)
        elif p >= 0 and sieve[p]:
            field_make(p)
        else:
            with pytest.raises(NotPrimeError):
                field_make(p)


def test_field_make_divides_each_p_once(monkeypatch, fresh_contexts):
    # field_make is the one check of p: it, the gate and the solver's
    # weights refuse alike, 2 and a p above the limit before any trial
    # division and p before k, and a field's p is divided once, when its
    # context is built; a refused p is divided again on every call
    divided = []

    def counted(n):
        divided.append(n)
        return _prime_factors(n)

    monkeypatch.setattr(gf, "_prime_factors", counted)

    def check(call, refusal):
        if refusal is None:
            return call()
        with pytest.raises(refusal[0]) as info:
            call()
        assert type(info.value) is refusal[0] and str(info.value) == refusal[1]

    profile = binary_profile(15)
    calls = (field_make, lambda p: check_hypotheses(15, p), lambda p: weights_mod_p(profile, p))
    cases = {
        2: (EvenCharacteristicError, "characteristic 2 is not supported"),
        SIZE_LIMIT + 1: (UsageError, f"characteristic {SIZE_LIMIT + 1} exceeds the limit {SIZE_LIMIT}"),
        1048575: (NotPrimeError, "1048575 is not prime"),
        9: (NotPrimeError, "9 is not prime"),
        1: (NotPrimeError, "1 is not prime"),
        -7: (NotPrimeError, "-7 is not prime"),
        1048573: None,
        3: None,
    }
    for p, refusal in cases.items():
        divided.clear()
        for call in calls * 2:
            check(lambda: call(p), refusal)
        assert divided == ([] if p in (2, SIZE_LIMIT + 1) else [p] if refusal is None else [p] * 6)
    # p is checked before k, and each accepted (p, k) divides p once
    degrees = {
        (2, 0): (EvenCharacteristicError, "characteristic 2 is not supported"),
        (SIZE_LIMIT + 1, 0): (UsageError, f"characteristic {SIZE_LIMIT + 1} exceeds the limit {SIZE_LIMIT}"),
        (9, 0): (NotPrimeError, "9 is not prime"),
        (3, 0): (UsageError, "extension degree must be at least 1"),
        (3, 13): (UsageError, f"field size 3^13 exceeds the limit {SIZE_LIMIT}"),
        (3, 2): None,
        (3, 4): None,
    }
    for (p, k), refusal in degrees.items():
        divided.clear()
        for _ in range(3):
            check(lambda: field_make(p, k), refusal)
        # the modulus search of GF(3^k) factors k too, never p
        assert divided.count(p) == (0 if p in (2, SIZE_LIMIT + 1) else 1 if refusal is None else 3), (p, k)


def test_size_limit():
    with pytest.raises(ValueError):
        field_make(3, 13)  # 3^13 > 2^20


def test_prime_field_inverse_pins():
    f7 = field_make(7)
    assert f7.el(2).inverse() == f7.el(4)
    f11 = field_make(11)
    assert f11.el(8).inverse() == f11.el(7)


def test_inverse_of_zero_raises():
    f7 = field_make(7)
    with pytest.raises(ZeroDivisionError):
        f7.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f7.el(3) * f7.zero.inverse()


@pytest.mark.parametrize("p", [3, 7, 31, 1021, 1048573])
def test_prime_field_inverse_is_the_fermat_power(p):
    # over GF(p), as over every field, the inverse (here Python's modular
    # pow of the norm, the element itself) is the power a^(p-2) through
    # `_kpow`, up to 20 bits of exponent below the size limit, and matches
    # pow(c, p - 2, p). Every unit of the small fields, and 2000 seeded
    # units and the extremes of the two largest
    ctx = field_make(p)
    units = range(1, p)
    if p > 1000:
        rng = SplitMix64(31)
        units = [1, 2, p // 2, p - 2, p - 1] + [1 + rng.below(p - 1) for _ in range(2000)]
    for c in units:
        a = ctx.el(c)
        assert a.inverse() == a ** (p - 2) == pow(c, p - 2, p)
        assert a * a.inverse() == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_sqrt_pins_mod_7():
    f7 = field_make(7)
    assert f7.el(2).sqrt() == f7.el(3)  # 3 < 4 = 7 - 3, canonical root
    assert f7.el(3).sqrt() is None
    assert f7.zero.sqrt() == f7.zero


def _stuck(signum, frame):
    raise AssertionError("Tonelli-Shanks still squaring after 10 s")


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 4), (13, 2)])
def test_sqrt_raises_on_a_zero_past_is_zero(p, k, monkeypatch):
    # zero's root is zero; a zero that gets past is_zero reaches
    # Tonelli-Shanks with t = 0, which has no 2-power order: the squaring
    # loop stops after m squarings and raises (an alarm fails the test if
    # it keeps squaring)
    ctx = field_make(p, k)
    assert ctx.zero.sqrt() == ctx.zero
    monkeypatch.setattr(FieldElement, "is_zero", lambda self: False)
    previous = signal.signal(signal.SIGALRM, _stuck)
    signal.alarm(10)
    try:
        with pytest.raises(ArithmeticError):
            ctx.zero.sqrt()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sqrt_pin_mod_11():
    f11 = field_make(11)
    assert f11.el(5).sqrt() == f11.el(4)


def test_squares_mod_7():
    f7 = field_make(7)
    squares = {(x * x).coeffs[0] for x in f7.elements()}
    assert squares == {0, 1, 2, 4}


def test_extension_generator_arithmetic():
    # in GF(9) with modulus x^2 + 1: x * x = -1 = 2, and 1/x = -x = 2x
    f9 = field_make(3, 2)
    x = f9.el([0, 1])
    assert x * x == f9.el(2)
    assert x.inverse() == f9.el([0, 2])


def test_element_index_roundtrip():
    f9 = field_make(3, 2)
    seen = []
    for i in range(f9.size):
        e = f9.element_at(i)
        assert f9.element_index(e) == i
        seen.append(e)
    assert len(set(seen)) == f9.size
    # canonical order is lexicographic on coefficient tuples
    assert seen == sorted(seen, key=lambda e: e.coeffs)


def test_elements_enumeration_matches_element_at():
    # `elements()` is `element_at` over every code, so both answer to the
    # digit-by-digit oracle: over GF(25), GF(5^4), whose code chunks take 3
    # and 1 digits, and GF(31^2), where every chunk has one digit
    for p, k in ((5, 2), (5, 4), (31, 2)):
        ctx = field_make(p, k)
        rows = coefficient_rows(ctx, range(ctx.size))
        assert [a.coeffs for a in ctx.elements()] == rows
        assert [ctx.element_at(i).coeffs for i in range(ctx.size)] == rows


def test_the_first_sqrt_scans_the_units_lazily(fresh_contexts):
    # the nonresidue search packs one unit at a time: a list of the units of
    # GF(1048573) would take tens of MiB, the scan takes a few KiB
    ctx = field_make(1048573)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        root = ctx.el(4).sqrt()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert root == ctx.el(2)
    assert peak < 1 << 20, peak


FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (11, 1)]


@st.composite
def field_and_elements(draw, count=1):
    p, k = draw(st.sampled_from(FIELDS))
    ctx = field_make(p, k)
    els = tuple(
        ctx.element_at(draw(st.integers(min_value=0, max_value=ctx.size - 1)))
        for _ in range(count)
    )
    return (ctx,) + els


@given(field_and_elements(count=3))
def test_ring_axioms(args):
    ctx, a, b, c = args
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero == a
    assert a * ctx.one == a
    assert a - a == ctx.zero


@given(field_and_elements(count=1))
def test_inverse_cancels(args):
    ctx, a = args
    if not a.is_zero():
        assert a * a.inverse() == ctx.one
        assert a.inverse() * a == ctx.one


@given(field_and_elements(count=2))
def test_frobenius_is_additive(args):
    # (a + b)^p = a^p + b^p in characteristic p
    ctx, a, b = args
    p = ctx.p
    assert (a + b) ** p == a ** p + b ** p


@given(field_and_elements(count=1))
def test_fermat(args):
    ctx, a = args
    assert a ** ctx.size == a


@given(field_and_elements(count=1))
def test_sqrt_squares_back(args):
    ctx, a = args
    r = (a * a).sqrt()
    assert r is not None
    assert r * r == a * a
    # canonical choice: the lex-smaller of the two roots
    assert r.coeffs <= (-r).coeffs


@given(field_and_elements(count=1))
def test_pow_negative_exponent(args):
    ctx, a = args
    if not a.is_zero():
        assert a ** -1 == a.inverse()
        assert a ** -3 == (a.inverse()) ** 3


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_square_count(p, k):
    ctx = field_make(p, k)
    squares = {x * x for x in ctx.elements()}
    assert len(squares) == (ctx.size + 1) // 2


# q - 1 = 2^s Q with s = 1 ... 8, so Tonelli-Shanks runs from no loop pass
# (s = 1) to eight
SQRT_FIELDS = [
    (7, 1), (31, 1), (3, 5),  # s = 1
    (13, 1),  # s = 2
    (3, 2), (5, 2),  # s = 3
    (17, 1), (3, 4), (7, 2),  # s = 4
    (97, 1),  # s = 5
    (193, 1),  # s = 6
    (641, 1),  # s = 7
    (257, 1),  # s = 8
]


@pytest.mark.parametrize("p,k", SQRT_FIELDS)
def test_sqrt_exists_iff_square(p, k):
    ctx = field_make(p, k)
    roots = {}
    for x in ctx.elements():
        roots.setdefault(x * x, []).append(x)
    for a in ctx.elements():
        r = a.sqrt()
        if a in roots:
            assert r is not None and r * r == a
            # the canonical root: the lex-smaller of the brute-force roots
            assert r.coeffs == min(x.coeffs for x in roots[a])
        else:
            assert r is None


def _gauss_count(p, k):
    # monic irreducibles of degree k over GF(p): (1/k) sum_{d | k} mu(d) p^(k/d)
    def mu(d):
        sign = 1
        for ell in range(2, d + 1):
            if d % ell == 0:
                d //= ell
                if d % ell == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mu(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


@pytest.mark.parametrize(
    "p,k",
    [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 2)],
)
def test_irreducible_count_matches_gauss(p, k):
    # every monic f of degree k, c_0 = 0 included; k = 4 and 6 need the unit
    # step, and a wrong exponent in either power miscounts
    accepted = sum(
        _is_irreducible(list(low) + [1], p, k) for low in product(range(p), repeat=k)
    )
    assert accepted == _gauss_count(p, k)


@pytest.mark.parametrize("p,k", [(7, 1), (31, 1), (3, 4), (5, 4), (3, 12)])
def test_reduce_and_mul_match_polynomial_division(p, k):
    # the one reduction routine, on unreduced polynomials of every length
    # from k to 2k - 1 with coefficients below 50 p^2, packed at a width of
    # the test's choosing, and the product that folds through it, against
    # the construction-time polynomial remainder
    ctx = field_make(p, k)
    f = list(ctx.modulus)
    rng = SplitMix64(p * 100 + k)
    width = (50 * p * p).bit_length()
    for _ in range(40):
        length = k + rng.below(k)
        prod = [rng.below(50 * p * p) for _ in range(length)]
        packed = sum(c << (width * i) for i, c in enumerate(prod))
        expected = _poly_divmod_rem([c % p for c in prod], f, p)
        assert ctx._unpack(ctx._reduce(packed, width, length)) == tuple(expected)
        a = ctx.element_at(rng.below(ctx.size))
        b = ctx.element_at(rng.below(ctx.size))
        full = [0] * (2 * k - 1)
        for i, ai in enumerate(a.coeffs):
            for j, bj in enumerate(b.coeffs):
                full[i + j] += ai * bj
        assert (a * b).coeffs == tuple(_poly_divmod_rem([c % p for c in full], f, p))


# The unit group of each field is cyclic of order q - 1. Log tables built
# here with the field's own product check that its products, inverses,
# powers and codes agree with that: below and above 256 elements, k = 2, 4,
# 6, odd degrees k = 3, 5, and prime fields, k = 1 (GF(3) has m = 2, so its
# Zech zero sits at d = 1)
TABLE_FIELDS = [(3, 4), (5, 4), (13, 2), (3, 6), (5, 3), (3, 5), (3, 1), (7, 1), (31, 1)]


def _order(x) -> int:
    """The multiplicative order of a unit x, by stepping its powers."""
    power, order = x, 1
    while power != 1:
        power, order = power * x, order + 1
    return order


def _generator(ctx):
    """The element of least code whose order is q - 1: the first unit with
    g ** ((q - 1)/l) != 1 for every prime l dividing q - 1."""
    m = ctx.size - 1
    primes = [ell for ell in range(2, m + 1) if m % ell == 0 and all(ell % d for d in range(2, ell))]
    units = map(ctx.element_at, range(1, ctx.size))
    return next(g for g in units if all(g ** (m // ell) != 1 for ell in primes))


def _tables(ctx):
    """(exp, log, zech) over codes, stepping g^e to g^(e + 1) with one
    product: exp[e] is the code of g^e (0 <= e < q - 1), log[i] the log of
    the element of code i (log[0] = -1), and zech[d] the log of 1 + g^d (-1
    where that is zero), read off the codes: adding 1 adds 1 to the constant
    coefficient, the leading code digit."""
    m, g = ctx.size - 1, _generator(ctx)
    exp, x = [], ctx.one
    for _ in range(m):
        exp.append(ctx.element_index(x))
        x = x * g
    log = [-1] * ctx.size
    for e, i in enumerate(exp):
        log[i] = e
    unit = ctx.p ** (ctx.k - 1)
    top = (ctx.p - 1) * unit
    zech = [log[i - top] if i >= top else log[i + unit] for i in exp]
    return exp, log, zech


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_generator_is_the_least_code_of_full_order(p, k):
    ctx = field_make(p, k)
    m = ctx.size - 1
    first = next(code for code in range(1, ctx.size) if _order(ctx.element_at(code)) == m)
    assert ctx.element_index(_generator(ctx)) == first
    assert _tables(ctx)[0][1] == first  # exp[1] is g


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_exp_and_log_are_inverse_bijections(p, k):
    ctx = field_make(p, k)
    exp, log, zech = _tables(ctx)
    m = ctx.size - 1
    assert len(exp) == m and len(log) == ctx.size and len(zech) == m
    assert sorted(exp) == list(range(1, ctx.size))  # g generates every unit
    assert all(log[exp[e]] == e for e in range(m))
    assert log[0] == -1
    g = ctx.element_at(exp[1])
    power = ctx.one
    for e in range(m):  # exp[e] is g ** e
        assert exp[e] == ctx.element_index(power)
        power = power * g
    assert power == ctx.one


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_table_products_match_field_products(p, k):
    ctx = field_make(p, k)
    exp, log, _ = _tables(ctx)
    m = ctx.size - 1
    rng = SplitMix64(p * 1000 + k)
    for _ in range(400):
        a = ctx.element_at(1 + rng.below(m))
        b = ctx.element_at(1 + rng.below(m))
        la, lb = log[ctx.element_index(a)], log[ctx.element_index(b)]
        assert ctx.element_at(exp[(la + lb) % m]) == a * b
        assert ctx.element_at(exp[-la % m]) == a.inverse()


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_every_zech_entry_matches_field_addition(p, k):
    ctx = field_make(p, k)
    exp, _, zech = _tables(ctx)
    m = ctx.size - 1
    for d, z in enumerate(zech):
        total = ctx.one + ctx.element_at(exp[d])
        if d == m // 2:  # g^(m/2) = -1
            assert z == -1 and total.is_zero()
        else:
            assert z >= 0 and ctx.element_at(exp[z]) == total


def test_int_operands_raise_type_error():
    # an element operates only with an element of its own field; `el` is the
    # one way to turn an int into an element, and int equality stays
    f7 = field_make(7)
    a = f7.el(3)
    for operate in (
        lambda: a + 1,
        lambda: 1 + a,
        lambda: a - 1,
        lambda: 1 - a,
        lambda: 2 * a,
        lambda: a * 2,
    ):
        with pytest.raises(TypeError):
            operate()
    assert a + f7.el(1) == f7.el(4) and a == 3


@pytest.mark.parametrize("p,k", [(7, 1), (3, 4)])
def test_prime_subfield_elements_hash_like_their_residues(p, k):
    # an element equal to an int must hash like it, or set and dict lookups
    # miss it
    ctx = field_make(p, k)
    for c in range(p):
        assert ctx.el(c) == c
        assert hash(ctx.el(c)) == hash(c)
        assert c in {ctx.el(c)}
        assert ctx.el(c) in {c}


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2)])
def test_int_equality_agrees_with_hash(p, k):
    # an int equals an element only when it is that element's residue, so
    # equal values hash alike
    ctx = field_make(p, k)
    for x in ctx.elements():
        for c in range(-3 * p, 3 * p):
            equal = 0 <= c < p and x == ctx.el(c)
            assert (x == c) is equal and (c == x) is equal
            if equal:
                assert hash(x) == hash(c) and c in {x}
            else:
                assert c not in {x}
    assert field_make(31).el(3) != 34


def test_el_takes_only_int_coefficients():
    # a float coefficient is not truncated, and a string is not read as its
    # characters; a bool or an int subclass is an int
    f81 = field_make(3, 4)
    with pytest.raises(TypeError):
        f81.el([1.5, 2.9])
    with pytest.raises(TypeError):
        f81.el("12")
    assert f81.el([True, 5]) == f81.el([1, 2])


def test_element_at_takes_only_int_codes():
    # over GF(7) a float code once made an element whose packing was a
    # float: it compared equal to its int and raised at its first product
    for ctx in (field_make(7), field_make(3, 4)):
        for code in (3.0, "3", 3.5):
            with pytest.raises(TypeError):
                ctx.element_at(code)
        assert ctx.element_at(True) == ctx.element_at(1)


def test_cross_field_operations_rejected():
    f7 = field_make(7)
    f11 = field_make(11)
    with pytest.raises(ValueError):
        f7.el(1) + f11.el(1)


# Each site takes an operand of the field f and one of the field g.
MIXING_SITES = {
    "add": lambda f, g: f.one + g.one,
    "sub": lambda f, g: f.one - g.one,
    "mul": lambda f, g: f.one * g.one,
    "el": lambda f, g: f.el(g.one),
    "lane-add": lambda f, g: f.lanes([1, 2]) + g.lanes([1, 2]),
    "lane-sub": lambda f, g: f.lanes([1, 2]) - g.lanes([1, 2]),
    "lane-add-element": lambda f, g: f.lanes([1, 2]) + g.one,
    "lane-mul": lambda f, g: f.lanes([1, 2]) * g.one,
    "affine-map": lambda f, g: AffineMap(f.one, g.one),
    "affine-act": lambda f, g: affine_act(AffineMap(f.one, f.one), AmbientPoint(g, (1, 2, 3))),
    "block-solution": lambda f, g: BlockSolution(
        binary_profile(15), (1, 4, 2, 1), (f.one, f.one, f.one, g.zero), f
    ),
}


def _other(kind):
    """GF(11), or a second context of GF(7) built by the constructor: equal
    in p, k and modulus to field_make(7), but another object."""
    if kind == "another-field":
        return field_make(11)
    return FieldCtx(7, 1, field_make(7).modulus)


@pytest.mark.parametrize("kind", ["another-field", "twin-context"])
@pytest.mark.parametrize("site", MIXING_SITES)
def test_every_site_refuses_a_second_context(site, kind):
    # contexts are compared by identity: a value of another context is
    # refused, even when it is the same field; `el` takes no element at all
    f, g = field_make(7), _other(kind)
    with pytest.raises(TypeError if site == "el" else ValueError):
        MIXING_SITES[site](f, g)


@pytest.mark.parametrize("kind", ["same-context", "another-field", "twin-context"])
def test_an_element_left_of_a_lane_vector_raises_type_error(kind):
    # a lane vector takes an element on its right only; on the left no
    # operator applies, whatever the element's context
    f = field_make(7)
    a, v = (f if kind == "same-context" else _other(kind)).one, f.lanes([1, 2])
    for operate in (lambda: a * v, lambda: a + v, lambda: a - v):
        with pytest.raises(TypeError):
            operate()


@pytest.mark.parametrize("kind", ["another-field", "twin-context"])
def test_elements_of_two_contexts_are_never_equal(kind):
    f, g = field_make(7), _other(kind)
    assert f.el(3).packed == g.el(3).packed
    assert f.el(3) != g.el(3) and not f.el(3) == g.el(3)
    assert f.el(3) == f.el(3) == 3


def test_sums_refuse_mismatched_multiplicities():
    # one multiplicity a code: a shorter list would drop codes, and a longer
    # one would size the packing for coordinates that are not there
    f7 = field_make(7)
    with pytest.raises(ValueError):
        f7.sums([1, 2, 3], [1])
    with pytest.raises(ValueError):
        f7.sums([1], [1, 1, 1])
    assert f7.sums([1, 2, 3], [1, 1, 1]) == f7.sums([1, 2, 3]) == (f7.el(6), f7.el(0))


def test_written_field_and_element_shapes():
    f9 = field_make(3, 2)
    assert _field(f9) == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    assert written(f9.el([2, 1])) == [2, 1]
