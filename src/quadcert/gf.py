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
is its code, sum(a_i * p^(k-1-i)); `FieldCtx.elements_at` decodes a list of
codes with one `_pack_codes` call, `element_at` is its one-code case, and
`element_index` converts back. The solver, the sampler and the sqrt
tie-break all use this one order. Codes are the points' format. An element
is held as its packed integer below; coefficient tuples appear only at `el`
and `coeffs`, and coefficient texts only at `coefficient_texts`.

Two values belong to one field exactly when their contexts are the same
object: `field_make` checks (p, k) and keeps one context per accepted pair,
the module's only cache but the digit tables below. An element operates
only with an element of its own field, and a lane vector only with a vector
of its shape or, on its right, such an element: a value of another field
raises ValueError, any other operand TypeError, an int included
(`FieldCtx.el` alone turns an int into an element). Int equality stays: an
element equals the residue c < p that it packs to, and hashes like it.

Products, squares and powers run in one kernel, `FieldCtx._kmul`, by Kronecker
substitution: sum c_i 2^(W i) packs an element, so a polynomial product is one
integer product. With b the bit length of k p^2, every digit of the product is
below 2^b, and W = 2b + 2 rounded up to whole bytes. Barrett's reduction takes
every digit mod p at once: with r = b + bits(p) and M = ceil(2^r / p),

    x - p (((x M) >> r) & Q),

Q the low W - r bits of each of the 2k - 1 digits, is exact for every digit
d < 2^b, since d M / 2^r = d / p + d (M - 2^r / p) / 2^r and the error term is
below 2^(b - r) < 1 / p; d M < 2^(2b + 1) never carries into the next digit.
`_norm` is that one line. A product is reduced, its k - 1 high digits, now
below p, are folded into the low k through the packed x^(k+j) mod the modulus
(each digit stays below p + (k - 1) p^2 < 2^b), and reduced again; over GF(p)
nothing is left to fold. The digits below 2p of x + y, x + P - y and P - x (P
packs p into every digit) make a sum, a difference and a negation.

An inverse goes through the norm (Itoh and Tsujii, Information and
Computation 78, 1988). With r = (q - 1)/(p - 1), a^(r-1) is the product of
the k - 1 Frobenius images a^p, ..., a^(p^(k-1)), and N(a) = a a^(r-1) = a^r
lies in GF(p), so a^(-1) = a^(r-1) N(a)^(-1) with N(a)^(-1) an int mod p:
k - 1 kernel products, none over GF(p). The Frobenius map is GF(p)-linear,
so the image of a is sum a_j T_j, T_j the packed x^(jp) mod the modulus; its
digits are at most k (p - 1)^2 < 2^b and one `_norm` reduces it, as it does
a^(r-1) times the int N(a)^(-1) < p, whose digits are at most (p - 1)^2. The
table of the T_j is built on a field's first inverse, as the square-root
constants are on its first root, so the rings that the modulus search builds
never build one.

The sampler completes a tail to the quadric on packings too
(`FieldCtx.complete_pair`): S and Q come from the power-sum kernel below,
the discriminant -S^2 - 2Q is 3P - S^2 - 2Q (digits 3 to 3p), its root r
comes from Tonelli-Shanks, and the two coordinates (-S +- r)/2 are
P - S + r and 2P - S - r (digits at most 2p), each reduced before its product
by the int (p + 1)/2, so that no digit passes (p - 1)(p + 1)/2 < p^2. Scaled
first, a digit would reach p (p + 1), past 2^b over GF(11). Only the two
codes are made, no element.

A lane vector (`FieldCtx.lanes`, `LaneVector`) holds m elements in one
integer, lane i at bit (2k - 1) W i, so that the 2k - 1 digits of a product
stay in their lane. It is packed from codes through bytes, and the kernel
(`_Kernel`) runs the same `norm` and `mul` on it with every mask times the
all-lanes one (a 1 in each lane): a vector times an element is one integer
product and one reduction, a sum of vectors one addition and one reduction,
an element added in every lane its packing times the all-lanes one. A vector
is zero exactly when its integer is, and its first nonzero lane is the lane
of its lowest set bit. A field element is the one-lane case.

Power sums of many elements, `FieldCtx.sums`, pack each code once at a wider
width. With the multiplicities m summing to n, every coefficient of
sum m X^2 is at most n k (p - 1)^2, so w = (n k (p - 1)^2).bit_length() bits,
rounded up to whole bytes, hold it and no packed digit carries into the
next. The kernel accumulates s_1 = sum m X and s_2 = sum m X X and hands each
sum once to `_reduce`, which repacks its k or 2k - 1 digits of w bits, each
mod p, at the kernel's width; the kernel's product by one folds the high
degrees. Over GF(p) the packing is the identity. The block system passes its
dozen c_i with multiplicities w_i, so the sums of a lift of thousands of
coordinates cost a dozen integer products.

The sums of a moved point, alpha x + beta for every x, are taken the same
way with no moved code made: with A and B the packings of alpha and beta,
each Y = A X + B is an integer polynomial of 2k - 1 digits, each digit at
most k (p - 1)^2 + p - 1, and Y Y one of 4k - 3, so
w = (n (2k - 1) (k (p - 1)^2 + p - 1)^2).bit_length() bits, in whole bytes,
hold every digit of s_2 = sum m Y Y. `_reduce` takes the low 2k - 1 digits as
above and the high 2k - 2 the same way, and adds those back times the packed
x^(2k - 1) mod the modulus, one more product. That width also holds the
unmoved sums, so a move returns them too, from the same packing.

Codes become packings (`FieldCtx._pack_codes`, for `elements_at`, `lanes` and
`sums`), or the text of their coefficients (for `coefficient_texts`, which
the certificate writer reads), through digit tables. The base-p digits of a
code, most significant first, are c_0, ..., c_{k-1}; they are read in chunks
of d digits, d the largest with p^d <= 256 (one when p > 256), the last chunk
taking what is left (5, 5 and 2 digits over GF(3^12)). Entry v of the table
for (p, s, width) packs the s digits of v at that width, the first at digit
0, or, when width is a separator string, holds their decimal texts joined by
it. So a chunk is one lookup over the whole list of codes at once. A packing
shifted up to its first coefficient is added to the chunks before it, and
the texts of a code's chunks are joined by the separator. A one-digit
chunk is its own packing, or its `str`, and needs no table, and over GF(p) a
code is its packing. Tables are built on first use by `functools.lru_cache`,
shared by every field of one characteristic; the widths of the kernel and of
`sums` are whole bytes, and the writer's separators one per indent, so a
process builds few per prime.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from operator import add, floordiv, index, lshift, mod, mul
from typing import Iterator, Optional

from .errors import EvenCharacteristicError, NotPrimeError, UsageError

SIZE_LIMIT = 1 << 20  # refuse fields larger than this; nothing here needs more


def _is_irreducible(f: list[int], p: int, k: int) -> bool:
    """Rabin test: x^(p^k) = x mod f, and x^(p^(k/l)) - x a unit mod f for
    every prime l dividing k, both in GF(p)[x]/(f) with the field's own
    product, which never divides, so a reducible f is safe. Once
    x^(p^k) = x, f divides x^(p^k) - x: it is squarefree with factors of
    degrees dividing k, so the ring is a product of subfields of GF(p^k),
    where u is a unit exactly when u^(p^k - 1) = 1."""
    ring = FieldCtx(p, k, tuple(f))
    x, q = ring.el([0, 1]), p**k
    if x**q != x:
        return False
    return all((x ** p ** (k // ell) - x) ** (q - 1) == ring.one for ell in _prime_factors(k))


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


@lru_cache(maxsize=None)
def _digit_table(p: int, digits: int, width: int | str) -> list:
    """Entry v is the packing, with width bits a digit, of the base-p digits
    of v, `digits` of them, most significant at digit 0; for a separator
    string width, the decimal texts of those digits joined by it. Built on
    first use by `functools.lru_cache` and shared by every field of
    characteristic p."""
    if isinstance(width, str):
        return list(map(width.join, product(map(str, range(p)), repeat=digits)))
    shifts = [width * i for i in range(digits)]
    return [sum(map(lshift, t, shifts)) for t in product(range(p), repeat=digits)]


def _chunk_plan(p: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The code digits in chunks of d, the most with p^d <= 256 table
    entries (one when p > 256), most significant first, each as (digits,
    p^(digits after the chunk), p^digits, first coefficient)."""
    d, chunks = 1, []
    while p ** (d + 1) <= 256:
        d += 1
    for start in range(0, k, d):
        digits = min(d, k - start)
        chunks.append((digits, p ** (k - start - digits), p**digits, start))
    return tuple(chunks)


class FieldElement:
    """Element of GF(p^k): its packed integer (module docstring) and its context."""

    __slots__ = ("ctx", "packed")

    def __init__(self, ctx: "FieldCtx", packed: int):
        self.ctx = ctx
        self.packed = packed

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx._unpack(self.packed)

    def _mismatch(self, other):
        """The answer to an operand that is not an element of this field:
        ValueError for an element of another field, else NotImplemented."""
        if isinstance(other, FieldElement):
            raise ValueError("elements belong to different fields")
        return NotImplemented

    def __add__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            return self._mismatch(other)
        return FieldElement(ctx, ctx._norm(self.packed + other.packed))

    def __sub__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            return self._mismatch(other)
        return FieldElement(ctx, ctx._norm(self.packed + ctx._ps - other.packed))

    def __neg__(self):
        ctx = self.ctx
        return FieldElement(ctx, ctx._norm(ctx._ps - self.packed))

    def __mul__(self, other):
        ctx = self.ctx
        if not (isinstance(other, FieldElement) and other.ctx is ctx):
            return self._mismatch(other)
        return FieldElement(ctx, ctx._kmul(self.packed, other.packed))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = self.inverse(), -e
        return FieldElement(self.ctx, self.ctx._kpow(base.packed, e))

    def inverse(self) -> "FieldElement":
        """The inverse of a nonzero a through its norm: a^(-1) = a^(r-1)
        N(a)^(-1) with r = (q - 1)/(p - 1), a^(r-1) the product of the
        Frobenius images a^p, ..., a^(p^(k-1)) and N(a) = a^r in GF(p),
        inverted as an int; k - 1 kernel products, none over GF(p)
        (`FieldCtx._inverse`)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.ctx, self.ctx._inverse(self.packed))

    def sqrt(self) -> Optional["FieldElement"]:
        """Square root with a deterministic choice between the two roots, or
        None when the element is a nonsquare (the no-root signal)."""
        if self.is_zero():
            return self.ctx.zero
        root = self.ctx._root(self.packed)
        return None if root is None else FieldElement(self.ctx, root)

    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.packed == other.packed and self.ctx is other.ctx
        if isinstance(other, int):  # a residue c < p packs to c
            return 0 <= other < self.ctx.p and self.packed == other
        return NotImplemented

    def __hash__(self):
        return hash(self.packed)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.ctx.k == 1:
            return f"{self.coeffs[0]}#GF({self.ctx.p})"
        return f"{list(self.coeffs)}#GF({self.ctx.p}^{self.ctx.k})"


def _ones(step: int, count: int) -> int:
    """A 1 every `step` bits (a whole number of bytes), count of them."""
    return int.from_bytes((1).to_bytes(step // 8, "little") * count, "little")


class _Kernel:
    """Barrett reduction and products for `lanes` packed elements side by
    side, lane i at bit `stride` i (module docstring). A field element is the
    one-lane case: `FieldCtx._norm` and `FieldCtx._kmul` are the one-lane
    kernel's `norm` and `mul`, and a lane vector runs the same two methods on
    a kernel whose masks are the one-lane masks times `ones`."""

    __slots__ = ("ctx", "lanes", "stride", "ones", "ps", "folds", "_barrett", "_split")

    def __init__(self, ctx: "FieldCtx", lanes: int, folds: tuple[int, ...]):
        p, k, w = ctx.p, ctx.k, ctx._width
        r = (k * p * p).bit_length() + p.bit_length()
        self.ctx, self.lanes, self.folds = ctx, lanes, folds
        self.stride = (2 * k - 1) * w
        self.ones = ones = _ones(self.stride, lanes)
        self.ps = ctx._ps * ones
        # M = ceil(2^r / p), and Q the low w - r bits of every digit
        q = ((1 << (w - r)) - 1) * _ones(w, (2 * k - 1) * lanes)
        self._barrett = (p, -(-(1 << r) // p), r, q)
        # the k low digits of every lane, their width, and digit 0 of every lane
        self._split = (((1 << w * k) - 1) * ones, w * k, ((1 << w) - 1) * ones, w)

    def norm(self, x: int) -> int:
        """The packing whose digits are those of x mod p, each digit of x
        below 2^b."""
        p, m, r, q = self._barrett
        return x - p * ((x * m >> r) & q)

    def mul(self, x: int, y: int) -> int:
        """The product of a packed element and a packed element or lane
        vector: Barrett, the high digits folded, Barrett again."""
        p, m, r, q = self._barrett
        x *= y
        x -= p * ((x * m >> r) & q)
        low, width, digit, w = self._split
        high = x >> width
        if not high:  # nothing to fold, as always over GF(p)
            return x
        x &= low
        for fold in self.folds:
            x += (high & digit) * fold
            high >>= w
        return x - p * ((x * m >> r) & q)


class LaneVector:
    """Elements of one field as lanes of one integer, built by
    `FieldCtx.lanes` (module docstring). A vector is true when some lane is
    not zero, `first_nonzero` finds the first such lane, and indexing
    decodes one lane as a field element."""

    __slots__ = ("kernel", "packed")

    def __init__(self, kernel: _Kernel, packed: int):
        self.kernel = kernel
        self.packed = packed

    def _operand(self, other) -> Optional[int]:
        """The packing of a vector of the same shape, or of a field element
        in every lane; None for any other type."""
        kernel = self.kernel
        if isinstance(other, LaneVector):
            theirs = other.kernel
            if theirs is kernel or (theirs.lanes == kernel.lanes and theirs.ctx is kernel.ctx):
                return other.packed
            raise ValueError("lane vectors of different fields or lengths")
        if isinstance(other, FieldElement):
            if other.ctx is kernel.ctx:
                return other.packed * kernel.ones
            raise ValueError("elements belong to different fields")
        return None

    def __add__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        return LaneVector(self.kernel, self.kernel.norm(self.packed + y))

    def __sub__(self, other):
        y = self._operand(other)
        if y is None:
            return NotImplemented
        kernel = self.kernel
        return LaneVector(kernel, kernel.norm(self.packed + kernel.ps - y))

    def __mul__(self, other):
        kernel = self.kernel
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ctx is not kernel.ctx:
            raise ValueError("elements belong to different fields")
        return LaneVector(kernel, kernel.mul(other.packed, self.packed))

    def __bool__(self):
        return self.packed != 0

    def first_nonzero(self) -> Optional[int]:
        """The index of the first lane that is not zero, None if there is none."""
        x = self.packed
        return ((x & -x).bit_length() - 1) // self.kernel.stride if x else None

    def __len__(self):
        return self.kernel.lanes

    def __getitem__(self, i: int) -> FieldElement:
        """Lane i, 0 <= i < len(self), as a field element; IndexError for
        any other i."""
        kernel = self.kernel
        if not 0 <= i < kernel.lanes:
            raise IndexError(f"lane {i} out of range for {kernel.lanes} lanes")
        stride = kernel.stride
        return FieldElement(kernel.ctx, self.packed >> stride * i & (1 << stride) - 1)


def retired(*args, **kwargs):
    """The one function behind five names whose code has left the package:
    `FieldCtx.tables`, `compression.rank`, `compression.restricted_rank`,
    `compression.tangent_basis` and `quadric.kernel_basis`. The benchmark
    tracer (perfbench/tracing.py) still wraps each by name, so each must
    resolve to a callable; no command calls one, and calling one raises.
    The names go when the tracer stops naming them (ROADMAP item 17)."""
    raise NotImplementedError("retired: kept only as a benchmark tracer target")


class FieldCtx:
    """Fixed field GF(p^k) with its deterministic modulus. Use `field_make`,
    not the constructor: contexts are compared by identity (module docstring)."""

    __slots__ = (
        "p",
        "k",
        "modulus",
        "size",
        "zero",
        "one",
        "_width", "_mask", "_shifts", "_folds", "_xtop", "_ps",  # the kernel's packing
        "_norm", "_kmul",  # the one-lane kernel's methods
        "_chunks",  # the code digits of each digit-table lookup
        "_sqrt_consts", "_frob",  # built on first use
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p**k
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        # the kernel's packing, digit i at bit w i (module docstring), the
        # packed x^(k+j) mod the modulus for j in [0, k - 1), which fold
        # products back, and x^(2k-1) mod the modulus, which folds the high
        # half of a moved square sum (`sums`)
        self._width = w = 8 * -(-(2 * (k * p * p).bit_length() + 2) // 8)
        self._mask = (1 << w) - 1
        self._shifts = tuple(range(0, w * k, w))
        self._ps = self._pack([p] * k)  # P of the module docstring
        # the one-lane kernel; its folds follow once its norm can build them
        kernel = _Kernel(self, 1, ())
        self._norm, self._kmul = kernel.norm, kernel.mul
        # x^k = -(f_0 + ... + f_{k-1} x^{k-1}); each next power shifts x^(k+j)
        # up a digit and folds its top digit back through x^k
        folds, x, low = [], self._pack([-c % p for c in modulus[:k]]), (1 << w * k) - 1
        for _ in range(k - 1):
            folds.append(x)
            x = self._norm((x << w & low) + (x >> w * (k - 1)) * folds[0])
        self._folds = kernel.folds = tuple(folds)
        self._xtop = x
        self._chunks = _chunk_plan(p, k)
        self._sqrt_consts = self._frob = None

    # --- construction helpers ---

    def el(self, value) -> FieldElement:
        """Make an element from an int (the prime-subfield embedding) or a list
        of int coefficients, low degree first (a float, a str or a field
        element raises TypeError)."""
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        coeffs = [index(c) % self.p for c in value]
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient list longer than degree {self.k}")
        return FieldElement(self, self._pack(coeffs))

    def element_index(self, a: FieldElement) -> int:
        """Position of a in the canonical order (coefficient-tuple lex)."""
        return self._code(a.packed)

    def elements_at(self, codes) -> list[FieldElement]:
        """The elements with these codes, in order, packed by one
        `_pack_codes` call (a float or a str code raises TypeError, a code
        outside [0, q) ValueError)."""
        codes = list(map(index, codes))
        if codes and not (0 <= min(codes) and max(codes) < self.size):
            code = next(c for c in codes if not 0 <= c < self.size)
            raise ValueError(f"index {code} out of range for size {self.size}")
        return [FieldElement(self, x) for x in self._pack_codes(codes, self._width)]

    def element_at(self, code: int) -> FieldElement:
        """The element with this code, the one-code case of `elements_at`."""
        return self.elements_at([code])[0]

    def elements(self) -> Iterator[FieldElement]:
        """All elements in canonical order, one `element_at` at a time."""
        return map(self.element_at, range(self.size))

    # --- arithmetic kernels ---

    def _pack(self, coeffs) -> int:
        x = 0
        for c in reversed(coeffs):
            x = (x << self._width) | c
        return x

    def _unpack(self, x: int) -> tuple[int, ...]:
        return tuple([(x >> s) & self._mask for s in self._shifts])

    def _code(self, x: int) -> int:
        """The code of a packed element, its digits taken mod p here."""
        p, mask = self.p, self._mask
        code = 0
        for s in self._shifts:
            code = code * p + ((x >> s) & mask) % p
        return code

    def coefficient_texts(self, codes, sep: str) -> list[str]:
        """For each element with these codes, the decimal texts of its
        coefficients, low degree first, joined by sep."""
        return self._pack_codes(codes, sep)

    def _pack_codes(self, codes, width: int | str) -> list:
        """The packings, with width bits a digit, of the elements with these
        codes, or for a separator string width the texts of their
        coefficients, low degree first, joined by it: each chunk of code
        digits read from its digit table, and the chunks joined, packings
        shifted into place and added, texts by the separator (module
        docstring). Over GF(p) a list of codes is its own list of packings,
        returned."""
        if not isinstance(codes, list):
            codes = list(codes)  # every chunk reads them
        p, text, parts = self.p, isinstance(width, str), []
        for digits, below, size, start in self._chunks:
            part = map(floordiv, codes, repeat(below)) if below > 1 else codes
            if start:
                part = map(mod, part, repeat(size))
            if digits > 1:
                part = map(_digit_table(p, digits, width).__getitem__, part)
            elif text:  # one digit is its own packing, or its str
                part = map(str, part)
            if start and not text:
                part = map(lshift, part, repeat(width * start))
            parts.append(part)
        if text and len(parts) > 1:  # the chunk texts joined by the separator
            parts = [map(width.join, zip(*parts))]
        out = parts[0]
        for part in parts[1:]:  # the shifted packings added
            out = map(add, out, part)
        return out if out is codes else list(out)

    def lanes(self, codes) -> LaneVector:
        """The lane vector of the elements with these codes, in order."""
        codes = list(codes)
        kernel = _Kernel(self, len(codes), self._folds)
        packed = self._pack_codes(codes, self._width)
        size = kernel.stride // 8
        data = b"".join(map(int.to_bytes, packed, repeat(size), repeat("little")))
        return LaneVector(kernel, int.from_bytes(data, "little"))

    def _kpow(self, x: int, e: int) -> int:
        """x^e for a packed x and e >= 0, its bits read from the top, so that
        it costs bitlen(e) - 1 squarings and popcount(e) - 1 products."""
        mul, out = self._kmul, x if e else 1  # the packed one for e = 0
        for bit in bin(e)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, x)
        return out

    def sums(self, codes, mults=None, move=None) -> tuple:
        """(sum, square sum) of the elements with these codes, each counted
        with its multiplicity mod p (one by default; codes may repeat, the
        sums are linear), in plain integers, reduced once (module docstring).
        With move = (alpha, beta), two elements of this field, it is the pair
        of the moved elements alpha x + beta, each summed as the integer
        polynomial A X + B, so no moved code is made, then the unmoved pair,
        both from one packing at the moved width and weighted alike. Raises
        ValueError when mults and codes differ in length, or when alpha or
        beta belongs to another field."""
        pairs = self._sums(codes, mults, move)
        if move is None:
            return FieldElement(self, pairs[0]), FieldElement(self, pairs[1])
        return tuple((FieldElement(self, s), FieldElement(self, q)) for s, q in pairs)

    def _sums(self, codes, mults=None, move=None) -> tuple:
        """`sums` as packings, no element built."""
        codes = list(codes)
        p, k = self.p, self.k
        if mults is not None:
            mults = [m % p for m in mults]
            if len(mults) != len(codes):
                raise ValueError(f"{len(mults)} multiplicities for {len(codes)} codes")
        n = len(codes) if mults is None else sum(mults)
        if move is None:
            bound, digits = n * k * (p - 1) ** 2, k
        elif any(c.ctx is not self for c in move):
            raise ValueError("a move by elements of another field")
        else:
            bound, digits = n * (2 * k - 1) * (k * (p - 1) ** 2 + p - 1) ** 2, 2 * k - 1
        w = 8 * -(-bound.bit_length() // 8)  # whole bytes
        packed = self._pack_codes(codes, w)
        if move is None:
            return self._pair(packed, mults, w, digits)
        a, b = [self._widen(c.packed, w) for c in move]
        return self._pair([a * x + b for x in packed], mults, w, digits), self._pair(packed, mults, w, k)

    def _pair(self, packed: list, mults, w: int, digits: int) -> tuple[int, int]:
        """The reduced (sum, square sum), as packings, of these packings of
        `digits` digits of w bits, each weighted by its multiplicity when
        mults is given."""
        weighted = packed if mults is None else list(map(mul, mults, packed))
        s2 = sum(map(mul, weighted, packed))
        return self._reduce(sum(weighted), w, digits), self._reduce(s2, w, 2 * digits - 1)

    def complete_pair(self, codes) -> Optional[tuple[int, int]]:
        """Given the codes of x_3, ..., x_n, the codes of the two x_1, x_2
        that put the point on the quadric, the root with +sqrt first, or None
        when the discriminant is a nonsquare: with S and Q the tail's sum and
        square sum, x = (-S +- sqrt(-S^2 - 2Q))/2, all on packings (module
        docstring), no element built."""
        s, q = self._sums(codes)
        norm, ps = self._norm, self._ps
        delta = norm(3 * ps - self._kmul(s, s) - 2 * q)
        root = self._root(delta) if delta else 0
        if root is None:
            return None
        half = (self.p + 1) // 2  # 1/2 lies in the prime subfield
        plus, minus = norm(ps - s + root), norm(2 * ps - s - root)
        return self._code(norm(plus * half)), self._code(norm(minus * half))

    def _widen(self, x: int, width: int) -> int:
        """A packed element repacked at `width` bits a digit, digit by digit,
        no code or coefficient tuple made."""
        mask = self._mask
        return sum([(x >> s & mask) << width * i for i, s in enumerate(self._shifts)])

    def _reduce(self, x: int, width: int, digits: int) -> int:
        """The packing of a polynomial with nonnegative integer coefficients,
        `digits` of them (k to 4k - 3) at `width` bits each (0 reads zeros):
        its low 2k - 1 taken mod p into the kernel's packing, whose product by
        the packed one folds degrees k and up through the modulus. The rest,
        from degree 2k - 1 (a moved square sum's), are reduced the same way
        and added back times the packed x^(2k - 1)."""
        p, w, mask = self.p, self._width, (1 << width) - 1
        top = 2 * self.k - 1
        low = 0
        for i in reversed(range(min(digits, top))):
            low = (low << w) | ((x >> (width * i)) & mask) % p
        if digits > top:
            high = self._reduce(x >> width * top, width, digits - top)
            low += self._kmul(high, self._xtop)
        return self._kmul(low, 1)

    def _inverse(self, a: int) -> int:
        """The inverse of a nonzero packing a through its norm (module
        docstring): y runs over the Frobenius images a^p, ..., a^(p^(k-1)),
        each the sum of a's digits times the packed x^(jp) mod the modulus,
        and their product c is a^(r-1), r = (q - 1)/(p - 1); N = a c = a^r
        lies in GF(p), and c N^(-1), N^(-1) an int mod p, is the inverse.
        No product by the packed one is taken: k - 1 kernel products, none
        over GF(p), where c = 1 and N = a. The table of the x^(jp) is built
        on the first inverse. A norm outside GF(p) is an internal fault and
        raises ArithmeticError."""
        p, k, mul = self.p, self.k, self._kmul
        if self._frob is None and k > 1:
            xp = self._kpow(1 << self._width, p)  # x^p
            table = [1]
            for _ in range(k - 1):
                table.append(mul(table[-1], xp))
            self._frob = tuple(zip(self._shifts, table))
        mask, norm, frob = self._mask, self._norm, self._frob
        c, y = 1, a
        for _ in range(k - 1):
            y = norm(sum([(y >> s & mask) * t for s, t in frob]))
            c = mul(c, y) if c != 1 else y
        n = mul(a, c) if c != 1 else a
        if n >= p:
            raise ArithmeticError(f"the norm of {FieldElement(self, a)!r} is not in GF({p})")
        return norm(c * pow(n, -1, p))

    def _root(self, x: int) -> Optional[int]:
        """One Tonelli-Shanks both decides whether the nonzero packing x is
        a square and takes its root; of the two roots it returns the
        lex-smaller coefficient tuple, or None for a nonsquare. With
        q - 1 = 2^s Q, Q odd, c = z^Q for the first nonresidue z in canonical
        order from code p^(k-1) on, round to code 1 (any nonresidue serves,
        and the elements below p^(k-1) are often all squares), r = x^((Q+1)/2)
        and t = x^Q, each pass keeps r^2 = x t and c of order 2^m, and halves
        the order 2^i of t. A square has i < m on every pass; a nonsquare is
        exactly x with t of order 2^s, which the first pass (m = s) finds. A
        t still not 1 after m squarings has no 2-power order, an internal
        fault (a zero that got past `is_zero`), and raises ArithmeticError."""
        mul, power = self._kmul, self._kpow
        if self._sqrt_consts is None:
            s, Q = 0, self.size - 1
            while Q % 2 == 0:
                s, Q = s + 1, Q // 2
            half = (self.size - 1) // 2
            # the units' packings in code order from p^(k-1), the first with
            # constant coefficient 1 (1 itself over GF(p)), then round to the
            # codes below it, no element decoded
            head = self.size // self.p
            codes = chain(range(head, self.size), range(1, head))
            units = (self._pack_codes([c], self._width)[0] for c in codes)
            z = next(z for z in units if power(z, half) != 1)
            self._sqrt_consts = (s, Q, power(z, Q))
        m, Q, c = self._sqrt_consts
        w = power(x, (Q - 1) // 2)
        r = mul(x, w)
        t = mul(r, w)
        while t != 1:  # the packed one
            i, t2 = 0, t
            while t2 != 1:
                if i == m:
                    raise ArithmeticError(f"Tonelli-Shanks on {FieldElement(self, x)!r}: t has no 2-power order")
                t2 = mul(t2, t2)
                i += 1
            if i == m:
                return None
            b = power(c, 1 << (m - i - 1))
            r = mul(r, b)
            c = mul(b, b)
            t = mul(t, c)
            m = i
        # the canonical order is the order of codes
        return min(r, self._norm(self._ps - r), key=self._code)

    tables = retired  # a benchmark tracer target, like the four in `retired`

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


def field_make(p: int, k: int = 1) -> FieldCtx:
    """The deterministic context for GF(p^k), one per (p, k) however the
    call is spelled, so element contexts can be compared by identity.

    p must be an odd prime and p^k at most 2^20 (documented implementation
    limit; the search spaces used here stay far below it), as `_context`
    checks: the gate and the solver refuse a bad p by calling field_make(p).
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise TypeError("p and k must be integers")
    return _context(p, k)


@lru_cache(maxsize=None)
def _context(p: int, k: int) -> FieldCtx:
    """The context of GF(p^k), built once. It refuses 2, then p > SIZE_LIMIT
    before any trial division, then a p that is not prime, then k; a refusal
    raises, so only an accepted (p, k) is cached."""
    if p == 2:
        raise EvenCharacteristicError("characteristic 2 is not supported")
    if p > SIZE_LIMIT:
        raise UsageError(f"characteristic {p} exceeds the limit {SIZE_LIMIT}")
    if _prime_factors(p) != [p]:  # [] for p < 2
        raise NotPrimeError(f"{p} is not prime")
    if k < 1:
        raise UsageError("extension degree must be at least 1")
    if k > SIZE_LIMIT.bit_length() or p**k > SIZE_LIMIT:
        raise UsageError(f"field size {p}^{k} exceeds the limit {SIZE_LIMIT}")
    return FieldCtx(p, k, _smallest_irreducible(p, k))
