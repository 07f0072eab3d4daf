"""The affine quadric cut out by the first two power sums, over GF(p^k).

A length-n point lies on the quadric iff its coordinate sum and its square
sum both vanish (odd characteristic makes this equivalent to the vanishing of
the first two elementary symmetric functions). The discriminant locus is
where two coordinates collide; the small diagonal is the constant vectors,
and it is exactly where the quadric is singular.

Both power sums come from one integer kernel (`_sums`), by Kronecker
substitution. It counts how often each coordinate occurs and packs each
distinct coordinate's coefficient vector (c_0, ..., c_{k-1}) into one integer
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

from .errors import NoPointFoundError, NotOnQuadricError, UsageError
from .gf import FieldCtx, FieldElement
from .linalg import Matrix, kernel_basis, rank
from .rng import SplitMix64


@dataclass(frozen=True)
class AmbientPoint:
    """A length-n coordinate vector over one field context."""

    coords: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise ValueError("a point needs at least 2 coordinates")
        ctx = self.coords[0].ctx
        for x in self.coords[1:]:
            if x.ctx is not ctx and x.ctx != ctx:
                raise ValueError("coordinates from different fields")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def ctx(self) -> FieldCtx:
        return self.coords[0].ctx

    def to_json(self) -> list[list[int]]:
        return [x.to_json() for x in self.coords]


def _sums(coords) -> tuple[FieldElement, FieldElement]:
    """(sum, square sum) of a nonempty sequence of elements of one field,
    by Kronecker substitution in plain integers and reduced once (see the
    module docstring)."""
    ctx = coords[0].ctx
    k = ctx.k
    w = (len(coords) * k * (ctx.p - 1) ** 2).bit_length()
    s1 = s2 = 0
    for c, m in Counter(x.coeffs for x in coords).items():
        packed = 0
        for ci in reversed(c):
            packed = (packed << w) | ci
        m_packed = m * packed
        s1 += m_packed
        s2 += m_packed * packed
    mask = (1 << w) - 1
    return (
        ctx._reduce([(s1 >> (w * i)) & mask for i in range(k)]),
        ctx._reduce([(s2 >> (w * i)) & mask for i in range(2 * k - 1)]),
    )


def power_sums(a: AmbientPoint) -> tuple[FieldElement, FieldElement]:
    """(sum of coordinates, sum of squared coordinates), exactly."""
    return _sums(a.coords)


def on_quadric(a: AmbientPoint) -> bool:
    s1, s2 = power_sums(a)
    return s1.is_zero() and s2.is_zero()


def in_discriminant(a: AmbientPoint) -> bool:
    """True iff two coordinates are exactly equal."""
    return len(set(a.coords)) < a.n


def in_small_diagonal(a: AmbientPoint) -> bool:
    """True iff all coordinates are equal."""
    first = a.coords[0].coeffs  # one field for all coordinates (__post_init__)
    return all(x.coeffs == first for x in a.coords)


def smoothness_matrix(a: AmbientPoint) -> Matrix:
    """The 2 x n matrix of gradients of the two defining sums: rows (1,...,1)
    and (2 x_1, ..., 2 x_n)."""
    ctx = a.ctx
    one = ctx.one
    two = ctx.el(2)
    return Matrix(2, a.n, [one] * a.n + [two * x for x in a.coords], ctx)


def smoothness_rank(a: AmbientPoint) -> int:
    """Rank of the gradient matrix at a point of the quadric: 2 at smooth
    points, 1 exactly on the small diagonal."""
    if not on_quadric(a):
        raise NotOnQuadricError("smoothness rank is defined on the quadric only")
    return rank(smoothness_matrix(a))


def tangent_basis(a: AmbientPoint) -> list[tuple[FieldElement, ...]]:
    """Basis of the tangent space at a smooth point: the kernel of the
    gradient matrix, dimension n - 2."""
    if not on_quadric(a):
        raise NotOnQuadricError("tangent space is defined on the quadric only")
    return kernel_basis(smoothness_matrix(a))


def complete_quadric_pair(tail) -> tuple[FieldElement, FieldElement] | None:
    """Given x_3, ..., x_n, the two leading coordinates that put the full
    vector on the quadric, or None when the discriminant is a nonsquare.

    With S and Q the sum and square sum of the tail, x_1 and x_2 are the
    roots of t^2 + S t + (S^2 + Q)/2, whose discriminant is -S^2 - 2Q. The
    root using +sqrt goes first; sqrt's own tie-break makes this canonical.
    """
    tail = tuple(tail)
    ctx = tail[0].ctx
    s, q = _sums(tail)
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

    Each try draws x_3, ..., x_n uniformly (SplitMix64, canonical element
    order), completes the pair (x_1, x_2), and retries on a nonsquare
    discriminant or any coordinate collision. A try always draws all n - 2
    indices, so the seed fixes the stream of tries; a tail whose indices
    collide is rejected before any index is decoded to an element. Raises
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
        indices = rng.draw(size, n - 2)
        if len(set(indices)) < n - 2:
            continue
        tail = tuple(map(ctx.element_at, indices))
        pair = complete_quadric_pair(tail)
        if pair is None:
            continue
        x1, x2 = pair
        if x1 == x2 or x1 in tail or x2 in tail:
            continue
        return AmbientPoint((x1, x2) + tail)
    raise NoPointFoundError(
        f"no distinct-coordinate point on the quadric found for n={n} over {ctx!r} "
        f"in {max_tries} tries; the locus may be empty here, retry over an "
        f"extension field (larger k)"
    )
