"""Coordinate permutations and invertible affine substitutions on points.

Permutations act on the left: (sigma . a) at index i is the old coordinate at
sigma^{-1}(i). An affine map (alpha, beta) with alpha != 0 sends every
coordinate x to alpha x + beta; these maps form a group under
(a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1), and the action commutes with every
coordinate permutation.

After an affine move the two power sums of a quadric point land at n beta and
n beta^2 exactly, so the quadric is carried into itself by the whole group
precisely when the characteristic divides n (and by the scalings beta = 0
always). `invariance_report` checks this on the sums of every moved
coordinate, taken by the power-sum kernel with the move inside it
(`quadric.power_sums(a, move)`), so no moved point is built; the same call
returns the point's own sums, from the same packing, for the report's
on-quadric precondition. `affine_act` builds a moved point by field
arithmetic on its coordinates, for the Library and
`compression.affine_invariance_check`. `random_affine` draws alpha, then
beta, and decodes both with one `FieldCtx.elements_at`.
"""

from __future__ import annotations

from .errors import NotOnQuadricError, SizeMismatchError
from .gf import FieldCtx, FieldElement
from .quadric import (
    AmbientPoint,
    on_quadric,  # unread: perfbench/tracing.py wraps it here until ROADMAP item 17 part B
    power_sums,
)
from .record import Record
from .rng import SplitMix64


class Permutation(Record):
    """Bijection of {1, ..., n}; images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("images are not a permutation of 1..n")
        Record.__init__(self, images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma tau)(i) = sigma(tau(i))."""
    if sigma.n != tau.n:
        raise SizeMismatchError("permutations of different sizes")
    return Permutation(tuple(sigma(tau(i)) for i in range(1, sigma.n + 1)))


def random_permutation(n: int, rng: SplitMix64) -> Permutation:
    images = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the seeded stream
        j = rng.below(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def permute(sigma: Permutation, a: AmbientPoint) -> AmbientPoint:
    """Left action: the coordinate at sigma(j) of the result is coordinate j
    of the input."""
    if sigma.n != a.n:
        raise SizeMismatchError(f"permutation of {sigma.n} on a point of {a.n}")
    return AmbientPoint(a.ctx, tuple(a.codes[j - 1] for j in sigma.inverse().images))


class AffineMap(Record):
    """x maps to alpha x + beta, with alpha invertible."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: FieldElement, beta: FieldElement):
        if alpha.is_zero():
            raise ValueError("alpha must be nonzero")
        if alpha.ctx is not beta.ctx:
            raise ValueError("alpha and beta from different fields")
        Record.__init__(self, alpha, beta)


def affine_compose(g1: AffineMap, g2: AffineMap) -> AffineMap:
    """First apply g2, then g1."""
    return AffineMap(g1.alpha * g2.alpha, g1.alpha * g2.beta + g1.beta)


def random_affine(ctx: FieldCtx, rng: SplitMix64) -> AffineMap:
    """alpha drawn from the units, then beta from the field, both decoded
    by one `FieldCtx.elements_at`."""
    return AffineMap(*ctx.elements_at([1 + rng.below(ctx.size - 1), rng.below(ctx.size)]))


def affine_act(g: AffineMap, a: AmbientPoint) -> AmbientPoint:
    """g a by field arithmetic; a map of another field raises ValueError."""
    return AmbientPoint(a.ctx, [a.ctx.element_index(g.alpha * x + g.beta) for x in a.coords])


class InvarianceReport(Record):
    """Power sums of g a against their predicted values n beta, n beta^2."""

    __slots__ = (
        "s1_after", "p2_after", "expected_s1", "expected_p2", "identities_hold", "stays_on_quadric"
    )


def invariance_report(a: AmbientPoint, g: AffineMap) -> InvarianceReport:
    """For a on the quadric: after the move, the coordinate sum is n beta and
    the square sum is n beta^2, both exact. The point stays on the quadric
    iff both predicted values vanish, which always happens when the
    characteristic divides n. The sums are those of g a's n coordinates,
    summed in the power-sum kernel with no moved point built, never the
    expansion alpha^2 sum x^2 + 2 alpha beta sum x + n beta^2 that the
    identities assert. The same call sums a unmoved, from the same packing,
    so a is packed once. Raises NotOnQuadricError for a off the quadric, and
    ValueError for a map of another field."""
    (s1, p2), (t1, t2) = power_sums(a, (g.alpha, g.beta))
    if not (t1.is_zero() and t2.is_zero()):
        raise NotOnQuadricError("invariance report needs a point on the quadric")
    n_el = a.ctx.el(a.n)
    exp_s1 = n_el * g.beta
    exp_p2 = n_el * g.beta * g.beta
    return InvarianceReport(
        s1_after=s1,
        p2_after=p2,
        expected_s1=exp_s1,
        expected_p2=exp_p2,
        identities_hold=(s1 == exp_s1 and p2 == exp_p2),
        stays_on_quadric=(s1.is_zero() and p2.is_zero()),
    )
