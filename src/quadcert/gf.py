"""Exact arithmetic in GF(p^k) for odd p with deterministic construction.

Elements are dense coefficient vectors in a fixed polynomial basis, low degree
first, every coefficient reduced mod p. For fixed (p, k) the defining modulus
is always the lexicographically smallest monic irreducible of degree k, with
coefficient lists compared low-to-high, so two runs (or two implementations)
agree on every serialized value. The search walks the candidates in that
order, c_0 first and starting at c_0 = 1 (every f with c_0 = 0 has the factor
x), and stops at the first one that passes Rabin's test, run on the
candidate's own ring GF(p)[x]/(f) with the field product.

Square roots come from one Tonelli-Shanks, which also decides whether an
element is a square; of the two roots it returns the one that comes first in
the canonical order below.

The canonical order on elements compares coefficient tuples lexicographically
(constant coefficient first). The integer index of an element under that order
is sum(a_i * p^(k-1-i)); `FieldCtx.element_at` and `FieldCtx.element_index`
convert both ways. The solver, the sampler and the sqrt tie-break all use this
one order.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, product
from operator import add, sub
from typing import Iterator, Optional

from .errors import EvenCharacteristicError, NotPrimeError, UsageError

SIZE_LIMIT = 1 << 20  # refuse fields larger than this; nothing here needs more


def check_characteristic(p: int) -> None:
    """Refuse p unless it is an odd prime, checking 2 first, then the size
    (above SIZE_LIMIT, before any primality test: trial division on a p
    near 10^18 would run for minutes), then primality."""
    if p == 2:
        raise EvenCharacteristicError("characteristic 2 is not supported")
    if p > SIZE_LIMIT:
        raise UsageError(f"characteristic {p} exceeds the limit {SIZE_LIMIT}")
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Polynomials over F_p are coefficient lists, low degree first, fixed length
# where it matters. These helpers are only used during field construction.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod_rem(a: list[int], f: list[int], p: int) -> list[int]:
    # f is monic; returns a mod f
    a = a[:]
    deg_f = len(f) - 1
    for d in range(len(a) - 1, deg_f - 1, -1):
        c = a[d]
        if c:
            a[d] = 0
            for i in range(deg_f):
                a[d - deg_f + i] = (a[d - deg_f + i] - c * f[i]) % p
    del a[deg_f:]
    while len(a) < deg_f:
        a.append(0)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic_b = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_trim(_poly_divmod_rem(a, monic_b, p))
    return a


def _is_irreducible(f: list[int], p: int, k: int) -> bool:
    """Rabin test: x^(p^k) = x mod f, and gcd(x^(p^(k/l)) - x, f) = 1 for
    every prime l dividing k. The powers are taken in GF(p)[x]/(f) with the
    field's own product, which never divides, so a reducible f is safe."""
    ring = FieldCtx(p, k, tuple(f))
    x = ring.el([0, 1])
    if x ** p**k != x:
        return False
    for ell in _prime_factors(k):
        diff = x ** p ** (k // ell) - x
        if len(_poly_gcd(list(diff.coeffs), f, p)) > 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)  # the polynomial x
    # Monic f = c_0 + c_1 x + ... + x^k; candidates in lex order of
    # (c_0, ..., c_{k-1}), c_0 compared first and starting at 1 (c_0 = 0
    # makes x a factor).
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        f = list(low) + [1]
        if _is_irreducible(f, p, k):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over GF({p})")


class FieldElement:
    """Element of GF(p^k): an immutable coefficient tuple plus its context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldCtx", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
            raise ValueError("elements belong to different fields")
        if isinstance(other, int):
            return self.ctx.el(other)
        return None

    # Coefficient-wise add and subtract run in C: map(p.__rmod__, ...) takes
    # each sum or difference mod p, which is never negative for p > 0. An
    # operand of the same context skips `_coerce`.

    def __add__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FieldElement(ctx, tuple(map(ctx.p.__rmod__, map(add, self.coeffs, other.coeffs))))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return FieldElement(ctx, tuple(map(ctx.p.__rmod__, map(sub, self.coeffs, other.coeffs))))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ctx._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = self.inverse(), -e
        result = self.ctx.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Fermat inversion: a^(q-2), the inverse of a nonzero a."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        if ctx.k == 1:
            return FieldElement(ctx, (pow(self.coeffs[0], ctx.p - 2, ctx.p),))
        return self ** (ctx.size - 2)

    def sqrt(self) -> Optional["FieldElement"]:
        """Square root with a deterministic choice between the two roots, or
        None when the element is a nonsquare (the no-root signal)."""
        return self.ctx._sqrt(self)

    def is_zero(self) -> bool:
        return not any(self.coeffs)  # coefficients are reduced, never negative

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and (
                self.ctx is other.ctx or self.ctx == other.ctx
            )
        if isinstance(other, int):
            return self == self.ctx.el(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.ctx.k == 1:
            return f"{self.coeffs[0]}#GF({self.ctx.p})"
        return f"{list(self.coeffs)}#GF({self.ctx.p}^{self.ctx.k})"

    def to_json(self) -> list[int]:
        return list(self.coeffs)


class FieldCtx:
    """Fixed field GF(p^k) with its deterministic modulus.

    Use `field_make`, not the constructor; `field_make` caches one context
    per (p, k) so element contexts can be compared by identity.
    """

    __slots__ = (
        "p",
        "k",
        "modulus",
        "size",
        "zero",
        "one",
        "_reductions",
        "_sqrt_consts",
        "_tables",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p**k
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))
        # x^(k+j) mod modulus for j in [0, k-1), used to fold products back
        self._reductions = tuple(
            tuple(_poly_divmod_rem([0] * (k + j) + [1], list(modulus), p))
            for j in range(k - 1)
        )
        self._sqrt_consts = None
        self._tables = None

    # --- construction helpers ---

    def el(self, value) -> FieldElement:
        """Make an element from an int (the prime-subfield embedding) or a
        coefficient list, low degree first."""
        if isinstance(value, FieldElement):
            if value.ctx == self:
                return value
            raise ValueError("element from a different field")
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient list longer than degree {self.k}")
        return FieldElement(self, coeffs + (0,) * (self.k - len(coeffs)))

    def element_index(self, a: FieldElement) -> int:
        """Position of a in the canonical order (coefficient-tuple lex)."""
        acc = 0
        for c in a.coeffs:
            acc = acc * self.p + c
        return acc

    def element_at(self, index: int) -> FieldElement:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for size {self.size}")
        digits = []
        for _ in range(self.k):
            digits.append(index % self.p)
            index //= self.p
        return FieldElement(self, tuple(reversed(digits)))

    def elements(self) -> Iterator[FieldElement]:
        """All elements in canonical order."""
        for j in range(self.size):
            yield self.element_at(j)

    # --- arithmetic kernels ---

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p, k = self.p, self.k
        if k == 1:
            return FieldElement(self, ((a.coeffs[0] * b.coeffs[0]) % p,))
        ac, bc = a.coeffs, b.coeffs
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] += ai * bj
        return self._reduce(prod)

    def _reduce(self, prod) -> FieldElement:
        """The element of an unreduced integer polynomial given as a list of
        k to 2k - 1 coefficients (any integers), low degree first: each
        coefficient mod p, then the degrees >= k folded through `_reductions`."""
        p, k = self.p, self.k
        out = list(prod[:k])
        for d in range(k, len(prod)):
            c = prod[d] % p
            if c:
                red = self._reductions[d - k]
                for i in range(k):
                    out[i] += c * red[i]
        return FieldElement(self, tuple(c % p for c in out))

    def _sqrt(self, a: FieldElement) -> Optional[FieldElement]:
        """One Tonelli-Shanks both decides whether a is a square and takes
        its root; of the two roots it returns the lex-smaller coefficient
        tuple. With q - 1 = 2^s Q, Q odd, c = z^Q for the first nonresidue z
        in canonical order, r = a^((Q+1)/2) and t = a^Q, each pass keeps
        r^2 = a t and c of order 2^m, and halves the order 2^i of t. A square
        has i < m on every pass; a nonsquare is exactly a with t of order
        2^s, which the first pass (m = s) finds."""
        if a.is_zero():
            return self.zero
        if self._sqrt_consts is None:
            s, Q = 0, self.size - 1
            while Q % 2 == 0:
                s, Q = s + 1, Q // 2
            half = (self.size - 1) // 2
            units = map(self.element_at, range(1, self.size))
            z = next(z for z in units if z**half != self.one)
            self._sqrt_consts = (s, Q, z**Q)
        m, Q, c = self._sqrt_consts
        w = a ** ((Q - 1) // 2)
        r = a * w
        t = r * w
        while t != self.one:
            i, t2 = 0, t
            while t2 != self.one:
                t2 = t2 * t2
                i += 1
            if i == m:
                return None
            b = c ** (1 << (m - i - 1))
            r = r * b
            c = b * b
            t = t * c
            m = i
        neg = -r
        return r if r.coeffs <= neg.coeffs else neg

    # --- log tables for elimination ---

    def tables(self):
        """(exp, log, zech) over canonical indices, built on first use: for
        a generator g, exp[e] is the index of g^e (0 <= e < q - 1), log[i]
        the log of the element with index i (log[0] = -1), and zech[d] the
        log of 1 + g^d (-1 where that is zero, d = (q - 1)/2)."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def _generator(self) -> FieldElement:
        """The first element of order q - 1: x + c for c = 0..p-1 (k > 1),
        then the canonical order. `_build_tables` steps by g with one Horner
        pass per degree of g, so a linear generator is the cheapest."""
        m = self.size - 1
        cofactors = [m // ell for ell in _prime_factors(m)]
        linear = (self.el([c, 1]) for c in range(self.p)) if self.k > 1 else ()
        for g in chain(linear, map(self.element_at, range(1, self.size))):
            if all(g**e != self.one for e in cofactors):
                return g
        raise RuntimeError(f"no generator of {self!r}")

    def _build_tables(self):
        p, k, m = self.p, self.k, self.size - 1
        g = list(self._generator().coeffs)
        while len(g) > 1 and not g[-1]:
            g.pop()
        lead, low = g.pop(), g[::-1]
        x_k = self._reductions[0] if k > 1 else ()  # x^k mod the modulus
        # 32-bit arrays: a quarter of the memory of int lists near q = 2^20
        exp = array("i", bytes(4 * m))
        log = array("i", [-1]) * (m + 1)
        cur = [1] + [0] * (k - 1)
        for e in range(m):
            idx = 0
            for c in cur:
                idx = idx * p + c
            exp[e] = idx
            log[idx] = e
            # cur <- cur * g by Horner over g's coefficients: acc <- x acc + g_i cur
            acc = cur if lead == 1 else [(lead * c) % p for c in cur]
            for gi in low:
                top = acc[-1]
                acc = [(a + gi * c + top * r) % p for a, c, r in zip([0] + acc, cur, x_k)]
            cur = acc
        # 1 + g^d adds 1 to the constant coefficient, the leading index digit
        unit = p ** (k - 1)
        top = (p - 1) * unit
        zech = array("i", (log[i - top] if i >= top else log[i + unit] for i in exp))
        return exp, log, zech

    # --- identity plumbing ---

    def __eq__(self, other):
        if isinstance(other, FieldCtx):
            return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


@lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> FieldCtx:
    """The deterministic context for GF(p^k).

    p must be an odd prime and p^k at most 2^20 (documented implementation
    limit; the search spaces used here stay far below it). Both are checked
    before the primality test and p^k, whose cost grows with p and k.
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise TypeError("p and k must be integers")
    check_characteristic(p)
    if k < 1:
        raise UsageError("extension degree must be at least 1")
    if k > SIZE_LIMIT.bit_length() or p**k > SIZE_LIMIT:
        raise UsageError(f"field size {p}^{k} exceeds the limit {SIZE_LIMIT}")
    return FieldCtx(p, k, _smallest_irreducible(p, k))
