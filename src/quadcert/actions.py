"""Coordinate permutations and invertible affine substitutions on points.

Permutations act on the left: (sigma . a) at index i is the old coordinate at
sigma^{-1}(i). An affine map (alpha, beta) with alpha != 0 sends every
coordinate x to alpha x + beta; these maps form a group under
(a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1), and the action commutes with every
coordinate permutation.

After an affine move the two power sums of a quadric point land at n beta and
n beta^2 exactly, so the quadric is carried into itself by the whole group
precisely when the characteristic divides n (and by the scalings beta = 0
always).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotOnQuadricError, SizeMismatchError
from .gf import FieldCtx, FieldElement
from .quadric import AmbientPoint, in_small_diagonal, on_quadric, power_sums
from .rng import SplitMix64


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., n}; images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images are not a permutation of 1..n")

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

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def from_cycle(n: int, cycle: tuple[int, ...]) -> "Permutation":
        images = list(range(1, n + 1))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        return Permutation(tuple(images))


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
    return AmbientPoint.from_codes(a.ctx, tuple(a.codes[j - 1] for j in sigma.inverse().images))


@dataclass(frozen=True)
class AffineMap:
    """x maps to alpha x + beta, with alpha invertible."""

    alpha: FieldElement
    beta: FieldElement

    def __post_init__(self):
        if self.alpha.is_zero():
            raise ValueError("alpha must be nonzero")
        if self.alpha.ctx != self.beta.ctx:
            raise ValueError("alpha and beta from different fields")

    @property
    def ctx(self) -> FieldCtx:
        return self.alpha.ctx

    def inverse(self) -> "AffineMap":
        ia = self.alpha.inverse()
        return AffineMap(ia, -(ia * self.beta))

    @staticmethod
    def identity(ctx: FieldCtx) -> "AffineMap":
        return AffineMap(ctx.one, ctx.zero)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "beta": self.beta.to_json()}


def affine_compose(g1: AffineMap, g2: AffineMap) -> AffineMap:
    """First apply g2, then g1."""
    return AffineMap(g1.alpha * g2.alpha, g1.alpha * g2.beta + g1.beta)


def random_affine(ctx: FieldCtx, rng: SplitMix64) -> AffineMap:
    alpha = ctx.element_at(1 + rng.below(ctx.size - 1))
    beta = ctx.element_at(rng.below(ctx.size))
    return AffineMap(alpha, beta)


def affine_act(g: AffineMap, a: AmbientPoint) -> AmbientPoint:
    if g.ctx != a.ctx:
        raise ValueError("map and point over different fields")
    distinct = list(set(a.codes))
    moved = dict(zip(distinct, a.ctx._affine_codes(g.alpha, g.beta, distinct)))
    return AmbientPoint.from_codes(a.ctx, tuple(map(moved.__getitem__, a.codes)))


@dataclass(frozen=True)
class InvarianceReport:
    """Power sums of g a against their predicted values n beta, n beta^2."""

    s1_after: FieldElement
    p2_after: FieldElement
    expected_s1: FieldElement
    expected_p2: FieldElement
    identities_hold: bool
    stays_on_quadric: bool

    def to_json(self) -> dict:
        return {
            "s1_after": self.s1_after.to_json(),
            "p2_after": self.p2_after.to_json(),
            "expected_s1": self.expected_s1.to_json(),
            "expected_p2": self.expected_p2.to_json(),
            "identities_hold": self.identities_hold,
            "stays_on_quadric": self.stays_on_quadric,
        }


def invariance_report(a: AmbientPoint, g: AffineMap) -> InvarianceReport:
    """For a on the quadric: after the move, the coordinate sum is n beta and
    the square sum is n beta^2, both exact. The point stays on the quadric
    iff both predicted values vanish, which always happens when the
    characteristic divides n."""
    if not on_quadric(a):
        raise NotOnQuadricError("invariance report needs a point on the quadric")
    moved = affine_act(g, a)
    s1, p2 = power_sums(moved)
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


@dataclass(frozen=True)
class StabilizerResult:
    """Either trivial, or the line {(alpha, c (1 - alpha))} fixing a constant
    vector with value c."""

    trivial: bool
    constant: FieldElement | None

    @property
    def kind(self) -> str:
        return "Trivial" if self.trivial else "OneDimensional"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "constant": None if self.constant is None else self.constant.to_json(),
        }


def affine_stabilizer(a: AmbientPoint) -> StabilizerResult:
    """Stabilizer of a point under the affine maps.

    A map fixing a satisfies alpha x_i + beta = x_i for every i. Off the
    small diagonal two coordinates differ, and subtracting their equations
    forces alpha = 1 and then beta = 0: only the identity fixes a. On the
    small diagonal, with every coordinate c, the fixing maps are the line
    alpha c + beta = c."""
    if not in_small_diagonal(a):
        return StabilizerResult(trivial=True, constant=None)
    return StabilizerResult(trivial=False, constant=a.ctx.element_at(a.codes[0]))
