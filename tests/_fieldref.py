"""Reference field arithmetic on coefficient tuples, no integer packing.

Sums, differences and negations go coefficient by coefficient. The product is
the schoolbook one the package used before its Kronecker kernel: a k^2 loop
over the coefficients, then each coefficient of degree >= k taken mod p and
folded through x^(k+j) mod the modulus, found by polynomial division. The
power and the Tonelli-Shanks square root below are built on it alone, with
the same canonical choice of root (the lex-smaller coefficient tuple).
test_kernels.py pins the kernel's sum, difference, negation, product, square,
power and root to these.
"""

import functools

from quadcert.gf import _poly_divmod_rem


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
