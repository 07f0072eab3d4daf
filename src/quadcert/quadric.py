"""The affine quadric cut out by the first two power sums, over GF(p^k).

A length-n point lies on the quadric iff its coordinate sum and its square
sum both vanish (odd characteristic makes this equivalent to the vanishing of
the first two elementary symmetric functions). The discriminant locus is
where two coordinates collide; the small diagonal is the constant vectors,
and it is exactly where the quadric is singular.

A point is held as the codes of its coordinates (see `gf`): the sampler
draws codes, a lift repeats them, affine moves map them, and sums, collision
tests and JSON work per distinct code. `FieldElement`s are the boundary.

Both power sums come from one integer kernel (`_sums`), by Kronecker
substitution. It counts how often each code occurs and packs each distinct
coordinate's coefficient vector (c_0, ..., c_{k-1}) into one integer
X = sum c_i 2^(w i), so that a polynomial product becomes one integer product.
With n coordinates every coefficient of sum m X^2 is at most n k (p - 1)^2,
and w = (n k (p - 1)^2).bit_length() bits hold it, so no packed digit carries
into the next. The kernel accumulates s_1 += m X and s_2 += m X X, unpacks k
and 2k - 1 digits once, and reduces each sum once through `FieldCtx._reduce`,
which takes the digits mod p and folds the high degrees through the modulus.
Over GF(p) the packing is the identity. A lifted point with thousands of
coordinates but a dozen distinct values therefore costs a dozen integer
products, not thousands of field operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul

from .errors import NoPointFoundError, NotOnQuadricError, UsageError
from .gf import FieldCtx, FieldElement
# kernel_basis is no longer called here; the benchmark tracer wraps it in this
# namespace and tests/test_trace_targets.py pins that (ROADMAP items 1 and 5)
from .linalg import Matrix, kernel_basis
from .rng import SplitMix64


@dataclass(frozen=True, init=False)
class AmbientPoint:
    """A length-n coordinate vector over one field context, held as codes."""

    ctx: FieldCtx
    codes: tuple[int, ...]

    def __init__(self, coords):
        coords = tuple(coords)
        ctx = coords[0].ctx if coords else None
        if any(x.ctx is not ctx and x.ctx != ctx for x in coords):
            raise ValueError("coordinates from different fields")
        self._set(ctx, map(ctx.element_index, coords) if ctx else ())

    def _set(self, ctx: FieldCtx, codes) -> "AmbientPoint":
        codes = tuple(codes)
        if len(codes) < 2 or min(codes) < 0 or max(codes) >= ctx.size:
            raise ValueError("a point needs at least 2 coordinates, each a code below the field size")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "codes", codes)
        return self

    @classmethod
    def from_codes(cls, ctx: FieldCtx, codes) -> "AmbientPoint":
        return cls.__new__(cls)._set(ctx, codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        return tuple(map(self.ctx.element_at, self.codes))

    def to_json(self) -> list[list[int]]:
        """Coefficient vectors, one list per distinct code."""
        distinct = list(set(self.codes))
        rows = dict(zip(distinct, map(list, zip(*reversed(self.ctx._columns(distinct))))))
        return list(map(rows.__getitem__, self.codes))


def _sums(ctx: FieldCtx, counts: Counter) -> tuple[FieldElement, FieldElement]:
    """(sum, square sum) of the elements with these codes, counted with
    multiplicity, by Kronecker substitution in plain integers and reduced
    once (see the module docstring)."""
    k = ctx.k
    mults = list(counts.values())
    w = (sum(mults) * k * (ctx.p - 1) ** 2).bit_length()
    packed = ctx._pack_codes(list(counts), w)
    s1 = sum(map(mul, mults, packed))
    s2 = sum(map(mul, map(mul, mults, packed), packed))
    mask = (1 << w) - 1
    return (
        ctx._reduce([(s1 >> (w * i)) & mask for i in range(k)]),
        ctx._reduce([(s2 >> (w * i)) & mask for i in range(2 * k - 1)]),
    )


def power_sums(a: AmbientPoint) -> tuple[FieldElement, FieldElement]:
    """(sum of coordinates, sum of squared coordinates), exactly."""
    return _sums(a.ctx, Counter(a.codes))


def on_quadric(a: AmbientPoint) -> bool:
    s1, s2 = power_sums(a)
    return s1.is_zero() and s2.is_zero()


def in_discriminant(a: AmbientPoint) -> bool:
    """True iff two coordinates are exactly equal."""
    return len(set(a.codes)) < a.n


def in_small_diagonal(a: AmbientPoint) -> bool:
    """True iff all coordinates are equal."""
    return a.codes.count(a.codes[0]) == a.n


def smoothness_matrix(a: AmbientPoint) -> Matrix:
    """The 2 x n matrix of gradients of the two defining sums: rows (1,...,1)
    and (2 x_1, ..., 2 x_n)."""
    ctx = a.ctx
    one = ctx.one
    two = ctx.el(2)
    return Matrix(2, a.n, [one] * a.n + [two * x for x in a.coords], ctx)


def smoothness_rank(a: AmbientPoint) -> int:
    """Rank of the gradient matrix at a point of the quadric: 2 at smooth
    points, 1 exactly on the small diagonal. The row (1, ..., 1) is nonzero,
    and 2 is a unit in odd characteristic, so the row (2 x_1, ..., 2 x_n) is
    a multiple of it exactly when all coordinates are equal."""
    if not on_quadric(a):
        raise NotOnQuadricError("smoothness rank is defined on the quadric only")
    return 1 if in_small_diagonal(a) else 2


def tangent_basis(a: AmbientPoint) -> list[tuple[FieldElement, ...]]:
    """Basis of the tangent space, the kernel of the gradient matrix [1; 2x]
    (dimension n - 2 at a smooth point), as `linalg.kernel_basis` gives it
    but with no elimination: the pivots are column 1 and the first j with
    x_j != x_1, if any, and free column c gives
    e_c - (x_j - x_c)/(x_j - x_1) e_1 - (x_c - x_1)/(x_j - x_1) e_j."""
    if not on_quadric(a):
        raise NotOnQuadricError("tangent space is defined on the quadric only")
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


def complete_quadric_pair(tail) -> tuple[FieldElement, FieldElement] | None:
    """Given x_3, ..., x_n (elements, or a point of codes), the two leading
    coordinates that put the full vector on the quadric, or None when the
    discriminant is a nonsquare.

    With S and Q the sum and square sum of the tail, x_1 and x_2 are the
    roots of t^2 + S t + (S^2 + Q)/2, whose discriminant is -S^2 - 2Q. The
    root using +sqrt goes first; sqrt's own tie-break makes this canonical.
    """
    if isinstance(tail, AmbientPoint):
        ctx, codes = tail.ctx, tail.codes
    else:
        tail = tuple(tail)
        ctx = tail[0].ctx
        codes = map(ctx.element_index, tail)
    s, q = _sums(ctx, Counter(codes))
    disc = -(s * s) - q - q
    root = disc.sqrt()
    if root is None:
        return None
    half = ctx.el((ctx.p + 1) // 2)  # 1/2 lies in the prime subfield
    x1 = (-s + root) * half
    x2 = (-s - root) * half
    return x1, x2


def default_max_tries(ctx: FieldCtx) -> int:
    return 64 * ctx.size


def sample_quadric_point(
    n: int, ctx: FieldCtx, seed: int, max_tries: int | None = None
) -> AmbientPoint:
    """A seeded point on the quadric with pairwise distinct coordinates.

    Each try draws the codes of x_3, ..., x_n uniformly (SplitMix64),
    completes the pair (x_1, x_2) from those codes, and retries on a
    nonsquare discriminant or any coordinate collision, found by code. A try
    always draws all n - 2 codes, so the seed fixes the stream of tries; no
    code is decoded to an element. Raises
    NoPointFoundError after max_tries, or at once when n exceeds the field
    size (n pairwise distinct coordinates need n elements); over small fields
    the locus can be genuinely empty, so the message suggests retrying over
    an extension. Raises UsageError when n < 5.
    """
    if n < 5:
        raise UsageError("sampling needs n >= 5")
    if max_tries is None:
        max_tries = default_max_tries(ctx)
    elif max_tries < 1:
        raise ValueError(f"max_tries must be positive, got {max_tries}")
    if n > ctx.size:
        raise NoPointFoundError(
            f"no distinct-coordinate point exists for n={n} over {ctx!r}: "
            f"{n} pairwise distinct coordinates need at least {n} field elements "
            f"and the field has {ctx.size}; retry over an extension field (larger k)"
        )
    rng = SplitMix64(seed)
    size = ctx.size
    for _ in range(max_tries):
        tail = tuple(rng.draw(size, n - 2))
        drawn = set(tail)
        if len(drawn) < n - 2:
            continue
        pair = complete_quadric_pair(AmbientPoint.from_codes(ctx, tail))
        if pair is None:
            continue
        c1, c2 = map(ctx.element_index, pair)
        if c1 == c2 or c1 in drawn or c2 in drawn:
            continue
        return AmbientPoint.from_codes(ctx, (c1, c2) + tail)
    raise NoPointFoundError(
        f"no distinct-coordinate point on the quadric found for n={n} over {ctx!r} "
        f"in {max_tries} tries; the locus may be empty here, retry over an "
        f"extension field (larger k)"
    )
