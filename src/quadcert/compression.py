"""The triple-ratio compression map, its symmetries, and rank certificates.

For a point with pairwise distinct coordinates the map evaluates, for every
ordered triple (r, s, t) of distinct indices, the ratio

    (x_r - x_s) / (x_r - x_t).

Each component is unchanged by x -> alpha x + beta (numerator and denominator
scale by alpha, beta cancels), so the map collapses every orbit of the affine
group to a single value vector. The dimension certificate measures the rank
of the map's Jacobian restricted to the tangent space of the quadric: both
the point itself and, when the characteristic divides n, the all-ones vector
lie in that tangent space and in the Jacobian's kernel, which caps the
restricted rank at n - 4 (n - 3 without the divisibility).

The affine map x -> (x_1 - x)/(x_1 - x_2) sends x_1 to 0, x_2 to 1 and x_i to

    y_i = (x_1 - x_i) / (x_1 - x_2),    i = 3, ..., n,

and each y_i is itself the component (1, i, 2). Every component is affine
invariant, so F = G(Y) with G the (rational) ratio map evaluated at
(0, 1, y_3, ..., y_n), and the chain rule, which holds for formal
derivatives in every characteristic, gives dF = dG . dY. Hence
rank dF <= rank dY; the rows of dY are rows of dF, so the ranks are equal.
Restricting to a subspace composes both sides with the same inclusion on
the right, so the restricted ranks are equal too. The (n-2) x n generator
Jacobian dY therefore carries the whole certificate (Buhler and Reichstein's
affine quotient, Compositio Math. 106, 1997).

Carried one step further, that quotient makes the certificate O(n) with no
elimination. With d = x_1 - x_2, row i of dY is

    ((x_i - x_2) e_1 + (x_1 - x_i) e_2) / d^2 - e_i / d,

so its columns 3..n are -1/d times the identity and rank dY = n - 2. Its
kernel is therefore 2-dimensional, and both 1 = (1, ..., 1) and x lie in it
(the two invariances above), so ker dY = span(1, x) for x not constant. The
tangent space T = ker [1; 2x] has dimension n - 2 off the small diagonal, and

    rank(dY on T) = (n - 2) - dim(T cap span(1, x)).

A vector a 1 + b x lies in T exactly when (a, b) is in the kernel of the
Gram matrix G = [[n, s_1], [s_1, s_2]] (s_j the power sums; 2 is a unit in
odd characteristic), so the restricted rank is n - 4 + rank G. On the
quadric G = diag(n, 0): rank 1 when p does not divide n, rank 0 when it
does. rank_certificate still evaluates every row and checks J.1 = 0 and
J.x = 0 at the point, since those identities are what make ker dY equal to
span(1, x): a wrong Jacobian, wrong field arithmetic or a wrong sampler
raises instead of yielding a rank read off a formula in (n, p).
compression_jacobian, the full Jacobian as a tuple of rows, is not exported
from the package, and nothing here eliminates: the tests eliminate those
rows, and a generator Jacobian they build themselves, as the certificate's
oracle.

The rows are evaluated as two lane vectors of `gf`, packed from the codes of
x_3, ..., x_n with no coordinate decoded, and one element: x_1 and x_2 are
decoded together by one `FieldCtx.elements_at`, as the witness decodes
x_1, ..., x_4, and d's one inverse goes through the norm (`gf`). Lane i - 3 of
D1 = (X - x_2)/d^2 and D2 = (x_1 - X)/d^2 holds row i's entry at x_1 and
x_2, and Di = -1/d is every row's entry at x_i, which the lane operators
apply to every lane. The two identities for all rows are then
D1 + D2 + Di = 0 and d (x_1 D1 + x_2 D2) - X = 0 (J.x = 0 times the unit d,
as Di = -1/d), a few big-integer operations each, and the first nonzero lane
of either names the first failing row.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    JacobianIdentityError,
    NotOnQuadricError,
    OnDiscriminantError,
    SizeMismatchError,
)
from .gf import FieldElement, LaneVector, retired
from .quadric import AmbientPoint, in_discriminant, power_sums
from .actions import AffineMap, Permutation, affine_act
from .record import Record

rank = restricted_rank = tangent_basis = retired  # benchmark tracer targets


def ordered_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All ordered triples of distinct indices in {1, ..., n}, lexicographic;
    there are n(n-1)(n-2) of them."""
    return tuple(permutations(range(1, n + 1), 3))


def _pair_inverses(a: AmbientPoint) -> dict[tuple[int, int], FieldElement]:
    """(i, j) -> 1/(x_i - x_j) for all ordered pairs. Like
    `faithfulness_witness` and `rank_certificate` (through `_generator_rows`),
    it inverts coordinate differences, so it refuses a point on the
    discriminant first."""
    if in_discriminant(a):
        raise OnDiscriminantError("two coordinates are equal")
    xs, pairs = a.coords, permutations(range(1, a.n + 1), 2)
    return {(i, j): (xs[i - 1] - xs[j - 1]).inverse() for i, j in pairs}


def compress(a: AmbientPoint) -> dict[tuple[int, int, int], FieldElement]:
    """Evaluate every component exactly, as {(r, s, t): value} in
    ordered_triples(n) order; the point must be off the discriminant locus."""
    inv = _pair_inverses(a)
    xs = a.coords
    return {
        (r, s, t): (xs[r - 1] - xs[s - 1]) * inv[(r, t)] for (r, s, t) in ordered_triples(a.n)
    }


def permute_image(sigma: Permutation, img: dict) -> dict:
    """(sigma . img)(r, s, t) = img(sigma^{-1} r, sigma^{-1} s, sigma^{-1} t),
    matching the left action on points: compressing a permuted point equals
    permuting the image. The value at (r, s, t) moves to its relabelled key."""
    n = sigma.n
    if len(img) != n * (n - 1) * (n - 2):
        raise SizeMismatchError(f"permutation of {n} against an image of {len(img)} components")
    return {(sigma(r), sigma(s), sigma(t)): v for (r, s, t), v in img.items()}


def affine_invariance_check(a: AmbientPoint, g: AffineMap) -> bool:
    """Assert compress(g a) == compress(a) componentwise; exact for every
    invertible affine map, in every characteristic."""
    before = compress(a)
    after = compress(affine_act(g, a))
    return before == after


def faithfulness_witness(a: AmbientPoint) -> bool:
    """Check that the 3-cycle 2 -> 4 -> 5 -> 2 moves the image of a.

    Acting by that cycle carries the component at (1, 4, 3) to the one at
    (1, 2, 3), so a fixed image would need (x_1 - x_2)/(x_1 - x_3) equal to
    (x_1 - x_4)/(x_1 - x_3), forcing x_2 = x_4 and contradicting pairwise
    distinctness. Returns True after verifying the two components differ.
    """
    if a.n < 5:
        raise ValueError("the witness needs n >= 5")
    if in_discriminant(a):
        raise OnDiscriminantError("two coordinates are equal")
    xs = a.ctx.elements_at(a.codes[:4])
    inv13 = (xs[0] - xs[2]).inverse()
    v123 = (xs[0] - xs[1]) * inv13
    v143 = (xs[0] - xs[3]) * inv13
    return v123 != v143


def compression_jacobian(a: AmbientPoint) -> tuple[tuple[FieldElement, ...], ...]:
    """Exact Jacobian as n(n-1)(n-2) rows of n elements, one row per ordered
    triple (r, s, t) in ordered_triples(n) order:

        d/dx_r = (x_s - x_t) / (x_r - x_t)^2
        d/dx_s = -1 / (x_r - x_t)
        d/dx_t = (x_r - x_s) / (x_r - x_t)^2

    and zero elsewhere. Every row is orthogonal to (1, ..., 1) (translation
    invariance) and to the point itself (scaling invariance)."""
    inv = _pair_inverses(a)
    inv_sq = {pair: v * v for pair, v in inv.items()}
    xs = a.coords
    n = a.n
    zero = a.ctx.zero
    rows = []
    for r, s, t in ordered_triples(n):
        row = [zero] * n
        isq = inv_sq[(r, t)]
        row[r - 1] = (xs[s - 1] - xs[t - 1]) * isq
        row[s - 1] = -inv[(r, t)]
        row[t - 1] = (xs[r - 1] - xs[s - 1]) * isq
        rows.append(tuple(row))
    return tuple(rows)


def _generator_rows(x1: FieldElement, x2: FieldElement, xs: LaneVector):
    """The generator rows i = 3, ..., n at the point (x1, x2, xs), xs the
    lane vector X of x_3, ..., x_n, as lane vectors D1 and D2, lane i - 3
    holding d/dx_1 and d/dx_2 of row i, and the element Di, every row's
    d/dx_i, which the lane operators apply to every lane. With d = x_1 - x_2

        D1 = (X - x_2)/d^2,  D2 = (x_1 - X)/d^2,  Di = -1/d."""
    inv = (x1 - x2).inverse()
    isq = inv * inv
    return (xs - x2) * isq, (xs - x1) * -isq, -inv


def gram_rank(n: int, s1: FieldElement, s2: FieldElement) -> int:
    """Rank over the field of G = [[n, s_1], [s_1, s_2]], the tangent
    equations (1, ..., 1) and x paired with the generator kernel's basis
    (1, x). For a point with distinct coordinates and power sums s_1, s_2,
    the generator Jacobian restricted to the tangent space has rank
    n - 4 + rank G, on the quadric or off it (module docstring)."""
    g11 = s1.ctx.el(n)
    if g11 * s2 != s1 * s1:
        return 2
    return 0 if g11.is_zero() and s1.is_zero() and s2.is_zero() else 1


class RankCertificate(Record):
    """Observed ranks at one point, against the divisibility-driven bound."""

    __slots__ = ("ambient_rank", "tangent_dim", "restricted_rank", "bound", "satisfied")


def rank_certificate(a: AmbientPoint) -> RankCertificate:
    """Jacobian rank of the compression map restricted to the tangent space.

    The point must be on the quadric with pairwise distinct coordinates (so
    it is a smooth point off the singular locus). The bound is n - 4 when
    the characteristic divides n, else n - 3; satisfied reports the observed
    restricted rank against it. The observed values are reported as-is, no
    equality with the bound is asserted anywhere.

    The ranks are those of the (n-2) x n generator Jacobian, equal to the
    full triple-ratio Jacobian's by the chain rule, and are read off its
    structure in O(n) field operations with no elimination (module
    docstring). Distinct coordinates give the pivot d = x_1 - x_2 != 0 of
    the identity block, so ambient_rank = n - 2, and a nonconstant point, so
    tangent_dim = n - 2. Each row is evaluated at the point and must satisfy
    J.1 = 0 and J.x = 0, which puts span(1, x) in the kernel; a failure
    raises JacobianIdentityError. Then restricted_rank = n - 4 + rank G with
    G the Gram matrix of gram_rank.
    """
    if in_discriminant(a):  # in particular x_1 != x_2
        raise OnDiscriminantError("certificates need pairwise distinct coordinates")
    s1, s2 = power_sums(a)
    if not (s1.is_zero() and s2.is_zero()):
        raise NotOnQuadricError("tangent space is defined on the quadric only")
    ctx, codes = a.ctx, a.codes
    x1, x2 = ctx.elements_at(codes[:2])
    xs = ctx.lanes(codes[2:])
    d1, d2, di = _generator_rows(x1, x2, xs)
    # J.1 = D1 + D2 + Di and d J.x = d (x_1 D1 + x_2 D2) - X, lane by lane
    failed = [
        check.first_nonzero()
        for check in (d1 + d2 + di, (d1 * x1 + d2 * x2) * (x1 - x2) - xs)
        if check
    ]
    if failed:
        raise JacobianIdentityError(
            f"generator row {min(failed) + 3} does not annihilate 1 and x at the point"
        )
    n = a.n
    bound = n - 4 if n % ctx.p == 0 else n - 3
    restricted = n - 4 + gram_rank(n, s1, s2)
    return RankCertificate(n - 2, n - 2, restricted, bound, restricted <= bound)
