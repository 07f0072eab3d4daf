"""The weighted linear + quadratic block system and its lifts.

For a binary presentation n = 2^(m_1) + ... + 2^(m_r) and an odd prime p the
system asks for (c_1, ..., c_r), not all zero, with c_r = 0 and

    sum_i  w_i c_i   = 0
    sum_i  w_i c_i^2 = 0        where w_i = 2^(m_i) mod p.

A solution found over GF(p) is preferred; only r = 4 can force the quadratic
extension GF(p^2). Repeating each c_i across a block of 2^(m_i) coordinates
lifts a solution to a length-n point whose coordinate sum and square sum both
vanish, since each block contributes 2^(m_i) copies of c_i.

When r >= 5 the search is short. With c_5 = ... = c_r = 0 the system is a
form of degree 1 and one of degree 2 in the four variables c_1, ..., c_4;
their degrees sum to 3 < 4, so by Chevalley-Warning (Serre, A Course in
Arithmetic, ch. I, section 2) the number of common zeros over any finite
field of characteristic p is divisible by p, and there is one besides zero.
Its (c_2, c_3, c_4) is not zero, because the linear equation fixes c_1 from
the rest. Scanning suffixes (c_2, ..., c_{r-1}) by increasing index with c_2
the least significant digit, the first solution therefore has index below
q^3: only (c_2, c_3, c_4) need scanning, with the rest zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from operator import add, getitem

from .errors import InvalidProfileError, UsageError
from .gf import SIZE_LIMIT, FieldCtx, FieldElement, check_characteristic, field_make
from .profile import BinaryProfile
from .quadric import AmbientPoint

_CANDIDATE_LIMIT = 10**7  # documented search budget, charged on the scanned suffixes


def weights_mod_p(profile: BinaryProfile, p: int) -> tuple[int, ...]:
    """Residues 2^(m_i) mod p in profile order. Never zero for odd p."""
    check_characteristic(p)
    return tuple(pow(2, m, p) for m in profile.exponents)


@dataclass(frozen=True)
class BlockSolution:
    """A verified solution vector, its field, and the data defining it."""

    profile: BinaryProfile
    p: int
    weights: tuple[int, ...]
    c: tuple[FieldElement, ...]
    ctx: FieldCtx

    def to_json(self) -> dict:
        return {
            "n": self.profile.n,
            "exponents": list(self.profile.exponents),
            "weights": list(self.weights),
            "c": [e.to_json() for e in self.c],
            "field": self.ctx.to_json(),
        }


def evaluate_system(sol: BlockSolution) -> tuple[FieldElement, FieldElement]:
    """Re-evaluate both sums exactly; (0, 0) iff the solution is valid."""
    ctx = sol.ctx
    lin = ctx.zero
    quad = ctx.zero
    for w, ci in zip(sol.weights, sol.c):
        we = ctx.el(w)
        lin = lin + we * ci
        quad = quad + we * ci * ci
    return lin, quad


def _square(v) -> list[int]:
    """The unreduced integer square of a coefficient vector: length 2k - 1."""
    out = [0] * (2 * len(v) - 1)
    for i, a in enumerate(v):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


class _DigitRows(dict):
    """The table rows of one scanned digit c_j with weight w_j, built when
    the scan first reaches a value: for value index i, w_j c_j then
    w_1 w_j c_j^2 as integer coefficient vectors, so one pass over a
    candidate's rows sums L and w_1 Q. A scan that solves early decodes only
    the values it reaches."""

    def __init__(self, ctx: FieldCtx, w: int, w1: int):
        super().__init__()
        self.ctx, self.w, self.w1w = ctx, w, w1 * w

    def __missing__(self, i: int) -> list[int]:
        v = self.ctx.element_at(i).coeffs
        row = self[i] = [self.w * a for a in v] + [self.w1w * a for a in _square(v)]
        return row


def _solve_over(ctx: FieldCtx, weights: tuple[int, ...]):
    """First solution over ctx in the order of the full scan, or None.

    Candidates are ordered by increasing integer index with c_1 as the least
    significant base-q digit (canonical element indices). Eliminating c_1
    (every weight is invertible) and enumerating the suffix (c_2, ..., c_{r-1})
    in the same order returns exactly the first solution of the full scan: a
    candidate's index is c_1 + q * M for suffix index M, strictly monotone in
    M. The linear equation fixes c_1 = -L/w_1 with L = sum_{j>=2} w_j c_j;
    times w_1, the quadratic one reads L^2 + w_1 Q = 0 with
    Q = sum_{j>=2} w_j c_j^2, tested on integer coefficient vectors with one
    reduction per candidate. For r >= 5 the first solution has M < q^3
    (Chevalley-Warning, see the module docstring), so only (c_2, c_3, c_4)
    are scanned and the budget is charged q^min(r - 2, 3).
    """
    r = len(weights)
    q = ctx.size
    nfree = min(r - 2, 3)
    if q**nfree > _CANDIDATE_LIMIT:
        raise UsageError(
            f"search space {q}^{nfree} exceeds the supported budget {_CANDIDATE_LIMIT}"
        )
    k = ctx.k
    w1 = weights[0]
    # per scanned digit, most significant first like product's tuples
    tabs = [_DigitRows(ctx, w, w1) for w in weights[nfree:0:-1]]
    for digits in islice(product(range(q), repeat=nfree), 1, None):
        sums = [sum(col) for col in zip(*map(getitem, tabs, digits))]
        lin = sums[:k]
        if ctx._reduce(list(map(add, _square(lin), sums[k:]))).is_zero():
            inv_w1 = pow(w1, -1, ctx.p)
            c1 = ctx.el([-a * inv_w1 for a in lin])
            suffix = tuple(map(ctx.element_at, reversed(digits)))
            return (c1,) + suffix + (ctx.zero,) * (r - 1 - nfree)
    return None


def solve_block_system(profile: BinaryProfile, p: int) -> BlockSolution:
    """Solve the block system for (profile, p), preferring GF(p).

    Raises InvalidProfileError when r < 4 or p does not divide n; the
    construction covers neither case. When GF(p) has no solution (possible
    only at r = 4) the solver returns one over GF(p^2), which always exists.
    """
    r = profile.r
    n = profile.n
    if r < 4:
        raise InvalidProfileError(
            f"binary presentation of {n} has r = {r} < 4 terms; no construction applies"
        )
    base = field_make(p, 1)  # rejects p that is not an odd prime, 0 included
    if n % p != 0:
        raise InvalidProfileError(f"{p} does not divide {n}; the block weights cannot balance")
    weights = weights_mod_p(profile, p)
    c = _solve_over(base, weights)
    if c is not None:
        return BlockSolution(profile, p, weights, c, base)
    if r == 4:
        ext = field_make(p, 2)
        c = _solve_over(ext, weights)
        if c is not None:
            return BlockSolution(profile, p, weights, c, ext)
    raise RuntimeError(
        f"no solution for n={n}, p={p}: contradicts the existence guarantee"
    )


def lift_block_solution(profile: BinaryProfile, sol: BlockSolution) -> AmbientPoint:
    """Repeat c_i across 2^(m_i) consecutive coordinates, blocks in profile
    order. The lift has coordinate sum and square sum equal to the two system
    sums, hence zero, and it avoids the constant-vector locus because some
    c_i differs from c_r = 0. Lifts longer than gf.SIZE_LIMIT coordinates
    are refused before any is allocated: memory grows linearly with n, and
    a point with pairwise distinct coordinates, the kind certify samples,
    cannot be longer than the largest field anyway."""
    if profile != sol.profile:
        raise InvalidProfileError("solution belongs to a different profile")
    if profile.n > SIZE_LIMIT:
        raise UsageError(
            f"a lift of n={profile.n} coordinates exceeds the limit {SIZE_LIMIT}"
        )
    codes: list[int] = []
    for ci, size in zip(sol.c, profile.block_sizes()):
        codes += [sol.ctx.element_index(ci)] * size
    return AmbientPoint.from_codes(sol.ctx, codes)
