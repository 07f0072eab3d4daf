"""The weighted linear + quadratic block system and its lifts.

For a binary presentation n = 2^(m_1) + ... + 2^(m_r) and an odd prime p the
system asks for (c_1, ..., c_r), not all zero, with c_r = 0 and

    sum_i  w_i c_i   = 0
    sum_i  w_i c_i^2 = 0        where w_i = 2^(m_i) mod p.

A solution found over GF(p) is preferred; only r = 4 can force the quadratic
extension GF(p^2). Repeating each c_i across a block of 2^(m_i) coordinates
lifts a solution to a length-n point whose coordinate sum and square sum both
vanish, since each block contributes 2^(m_i) copies of c_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidProfileError, UsageError
from .gf import FieldCtx, FieldElement, field_make
from .profile import BinaryProfile
from .quadric import AmbientPoint

_CANDIDATE_LIMIT = 10**7  # documented search budget; inputs here stay tiny


def weights_mod_p(profile: BinaryProfile, p: int) -> tuple[int, ...]:
    """Residues 2^(m_i) mod p in profile order. Never zero for odd p."""
    field_make(p, 1)  # validates p odd prime
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


def _solve_over(ctx: FieldCtx, weights: tuple[int, ...]):
    """First solution with c_1 derived from the linear equation.

    Candidates are ordered by increasing integer index with c_1 as the least
    significant base-q digit. Eliminating c_1 (every weight is invertible)
    and enumerating the suffix (c_2, ..., c_{r-1}) in the same order returns
    exactly the first solution of the full scan: a candidate's index is
    c_1 + q * M for suffix index M, strictly monotone in M.
    """
    r = len(weights)
    q = ctx.size
    nfree = r - 2  # c_2 .. c_{r-1}; c_r is pinned to 0
    total = q**nfree
    if total > _CANDIDATE_LIMIT:
        raise UsageError(
            f"search space {q}^{nfree} exceeds the supported budget {_CANDIDATE_LIMIT}"
        )
    if ctx.k == 1:
        p = ctx.p
        w = weights
        inv_w1 = pow(w[0], p - 2, p)
        digits = [0] * nfree
        for _ in range(1, total):
            i = 0
            while digits[i] == p - 1:
                digits[i] = 0
                i += 1
            digits[i] += 1
            s_lin = 0
            s_quad = 0
            for j in range(nfree):
                d = digits[j]
                if d:
                    wj = w[j + 1]
                    s_lin += wj * d
                    s_quad += wj * d * d
            c1 = (-s_lin * inv_w1) % p
            if (s_quad + w[0] * c1 * c1) % p == 0:
                c = [ctx.el(c1)] + [ctx.el(d) for d in digits] + [ctx.zero]
                return tuple(c)
        return None
    w_els = [ctx.el(w) for w in weights]
    inv_w1 = w_els[0].inverse()
    zero = ctx.zero
    indices = [0] * nfree
    values = [zero] * nfree
    for _ in range(1, total):
        i = 0
        while indices[i] == q - 1:
            indices[i] = 0
            values[i] = zero
            i += 1
        indices[i] += 1
        values[i] = ctx.element_at(indices[i])
        s_lin = zero
        s_quad = zero
        for j in range(nfree):
            v = values[j]
            if not v.is_zero():
                wv = w_els[j + 1] * v
                s_lin = s_lin + wv
                s_quad = s_quad + wv * v
        c1 = -s_lin * inv_w1
        if (s_quad + w_els[0] * c1 * c1).is_zero():
            return tuple([c1] + list(values) + [zero])
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
    c_i differs from c_r = 0."""
    if profile != sol.profile:
        raise InvalidProfileError("solution belongs to a different profile")
    coords: list[FieldElement] = []
    for ci, size in zip(sol.c, profile.block_sizes()):
        coords.extend([ci] * size)
    return AmbientPoint(tuple(coords))
