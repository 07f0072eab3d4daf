"""Reference field arithmetic on coefficient tuples, no integer packing.

Sums, differences and negations go coefficient by coefficient. The product is
the schoolbook one the package used before its Kronecker kernel: a k^2 loop
over the coefficients, then each coefficient of degree >= k taken mod p and
folded through x^(k+j) mod the modulus, found by polynomial division. The
power and the Tonelli-Shanks square root below are built on it alone, with
the same canonical choice of root (the lex-smaller coefficient tuple).
test_kernels.py pins the kernel's sum, difference, negation, product, square,
power and root to these.

`columns` converts codes to coefficients one base-p digit at a time, a mod
and a floor division of every code a digit, the conversion the package made
before its digit tables; `pack_codes` and `coefficient_rows` build on it, and
test_kernels.py pins the table conversion to them.

`smallest_irreducible` is an independent modulus search: the gcd form of
Rabin's test, run on this module's arithmetic in the candidate's own ring.
"""

import functools
from collections import namedtuple
from itertools import product

# the fields of `mul` and `power`: a FieldCtx, or a candidate ring
Ring = namedtuple("Ring", "p k modulus")


def _poly_divmod_rem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f for a monic f, as a list of len(f) - 1 coefficients."""
    a = a[:]
    deg_f = len(f) - 1
    for d in range(len(a) - 1, deg_f - 1, -1):
        c = a[d]
        if c:
            a[d] = 0
            for i in range(deg_f):
                a[d - deg_f + i] = (a[d - deg_f + i] - c * f[i]) % p
    del a[deg_f:]
    return a + [0] * (deg_f - len(a))


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b, trailing zero coefficients dropped (the empty list is 0)."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a[:]), trim(b[:])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        a, b = b, trim(_poly_divmod_rem(a, [c * inv_lead % p for c in b], p))
    return a


def _prime_factors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]


def is_irreducible(f: list[int], p: int, k: int) -> bool:
    """Rabin: x^(p^k) = x mod f, and gcd(x^(p^(k/l)) - x, f) = 1 for every
    prime l dividing k, the powers taken with `power` modulo f."""
    ring = Ring(p, k, tuple(f))
    x = (0, 1) + (0,) * (k - 2)
    if power(ring, x, p**k) != x:
        return False
    return all(
        len(_poly_gcd(list(sub(ring, power(ring, x, p ** (k // ell)), x)), f, p)) == 1
        for ell in _prime_factors(k)
    )


def smallest_irreducible(p: int, k: int) -> tuple:
    """The lex-smallest monic irreducible of degree k >= 2, coefficients low
    degree first, c_0 compared first and starting at 1."""
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        if is_irreducible(list(low) + [1], p, k):
            return tuple(low) + (1,)
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def columns(ctx, codes) -> list:
    """Coefficients c_{k-1}, ..., c_0 of the elements with these codes, one
    list each."""
    out = []
    codes = list(codes)
    for _ in range(ctx.k - 1):
        out.append([c % ctx.p for c in codes])
        codes = [c // ctx.p for c in codes]
    return out + [codes]


def pack_codes(ctx, codes, width: int) -> list:
    """The packings, with width bits a digit, of the elements with these codes."""
    cols = columns(ctx, codes)
    out = cols[0]
    for column in cols[1:]:  # Horner from c_{k-1}
        out = [(x << width) + c for x, c in zip(out, column)]
    return out


def coefficient_rows(ctx, codes) -> list:
    """The coefficient tuples, low degree first, of the elements with these codes."""
    return list(zip(*reversed(columns(ctx, codes))))


def add(ctx, a: tuple, b: tuple) -> tuple:
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def sub(ctx, a: tuple, b: tuple) -> tuple:
    return tuple((x - y) % ctx.p for x, y in zip(a, b))


def neg(ctx, a: tuple) -> tuple:
    return tuple(-x % ctx.p for x in a)


def mul(ctx, a: tuple, b: tuple) -> tuple:
    p, k = ctx.p, ctx.k
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    out = prod[:k]
    for d in range(k, 2 * k - 1):
        c = prod[d] % p
        for i, r in enumerate(_reductions(ctx)[d - k]):
            out[i] += c * r
    return tuple(c % p for c in out)


@functools.cache
def _reductions(ctx) -> tuple:
    """x^(k+j) mod the modulus, j = 0, ..., k - 2, by polynomial division."""
    k = ctx.k
    return tuple(
        tuple(_poly_divmod_rem([0] * (k + j) + [1], list(ctx.modulus), ctx.p))
        for j in range(k - 1)
    )


def power(ctx, a: tuple, e: int) -> tuple:
    """a^e for e >= 0, by square and multiply on `mul`."""
    out = (1,) + (0,) * (ctx.k - 1)
    while e:
        if e & 1:
            out = mul(ctx, out, a)
        a = mul(ctx, a, a)
        e >>= 1
    return out


def _elements(ctx):
    """Coefficient tuples in canonical order (the order of codes)."""
    p, k = ctx.p, ctx.k
    for code in range(ctx.size):
        digits = []
        for _ in range(k):
            code, d = divmod(code, p)
            digits.append(d)
        yield tuple(reversed(digits))


@functools.cache
def _nonresidue(ctx) -> tuple:
    """The first nonsquare in canonical order."""
    one = (1,) + (0,) * (ctx.k - 1)
    return next(
        z for z in _elements(ctx) if any(z) and power(ctx, z, (ctx.size - 1) // 2) != one
    )


def sqrt(ctx, a: tuple):
    """The lex-smaller square root of a, or None for a nonsquare."""
    p, k, q = ctx.p, ctx.k, ctx.size
    one = (1,) + (0,) * (k - 1)
    if not any(a):
        return a
    s, Q = 0, q - 1
    while Q % 2 == 0:
        s, Q = s + 1, Q // 2
    m, c = s, power(ctx, _nonresidue(ctx), Q)
    r = power(ctx, a, (Q + 1) // 2)
    t = power(ctx, a, Q)
    while t != one:
        i, t2 = 0, t
        while t2 != one:
            t2 = mul(ctx, t2, t2)
            i += 1
        if i == m:
            return None
        b = power(ctx, c, 1 << (m - i - 1))
        r = mul(ctx, r, b)
        c = mul(ctx, b, b)
        t = mul(ctx, t, c)
        m = i
    neg = tuple((-x) % p for x in r)
    return min(r, neg)
