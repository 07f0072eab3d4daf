"""The weighted linear + quadratic block system and its lifts.

For a binary presentation n = 2^(m_1) + ... + 2^(m_r) and an odd prime p the
system asks for (c_1, ..., c_r), not all zero, with c_r = 0 and

    sum_i  w_i c_i   = 0
    sum_i  w_i c_i^2 = 0        where w_i = 2^(m_i) mod p.

The solver works over the field that `profile.solution_field_degree` names:
GF(p), or GF(p^2) for the r = 4 profiles whose binary form in (c_2, c_3)
has a non-square discriminant. Repeating each c_i across a block of 2^(m_i)
coordinates lifts a solution to a length-n point whose coordinate sum and
square sum both vanish, since each block contributes 2^(m_i) copies of c_i.
The lift is held as its r runs (`BlockLift`), each code c_i with its count
2^(m_i), so building, checking and writing it takes O(r) work before the
writer's n rows, for any n. The module sets no cap on n: the command line
refuses to write a lift longer than the field cap (`cli._block`).

The solver returns the first solution of a scan of suffixes (c_2, ..., c_{r-1})
by increasing index, c_2 the least significant digit, solving one quadratic
in c_2 per slice of the scan (`_solve_over`). The system is homogeneous, so
among the solutions whose highest nonzero digit is c_j the first has c_j = e,
the least nonzero code: scaling by e/c_j keeps a solution. When r >= 5 some
solution has c_5 = ... = c_r = 0: then the system is a form of degree 1 and
one of degree 2 in the four variables c_1, ..., c_4; their degrees sum to
3 < 4, so by Chevalley-Warning (Serre, A Course in Arithmetic, ch. I,
section 2) the number of common zeros over any finite field of
characteristic p is divisible by p, and there is one besides zero. Its
(c_2, c_3, c_4) is not zero, because the linear equation fixes c_1.
"""

from __future__ import annotations

from itertools import chain

from .errors import InvalidProfileError
from .gf import FieldCtx, FieldElement, field_make
from .profile import R_TOO_SMALL, BinaryProfile, check_hypotheses, solution_field_degree
from .record import Record


def weights_mod_p(profile: BinaryProfile, p: int) -> tuple[int, ...]:
    """Residues 2^(m_i) mod p in profile order. Never zero for odd p."""
    field_make(p)  # refuses a p that is not an odd prime
    return tuple(pow(2, m, p) for m in profile.exponents)


class BlockSolution(Record):
    """A verified solution vector, its field, and the data defining it: one
    weight and one c_i, an element of ctx, per block of the profile."""

    __slots__ = ("profile", "weights", "c", "ctx")

    def __init__(
        self,
        profile: BinaryProfile,
        weights: tuple[int, ...],
        c: tuple[FieldElement, ...],
        ctx: FieldCtx,
    ):
        if not len(c) == len(weights) == profile.r:
            raise ValueError(
                f"{len(c)} values and {len(weights)} weights for {profile.r} blocks"
            )
        if any(ci.ctx is not ctx for ci in c):
            raise ValueError("a value from a different field")
        Record.__init__(self, profile, weights, c, ctx)


def evaluate_system(sol: BlockSolution) -> tuple[FieldElement, FieldElement]:
    """Re-evaluate both sums exactly; (0, 0) iff the solution is valid. They
    are the power sums of the lift (c_i repeated 2^(m_i) times), on gf's
    kernel with multiplicities w_i."""
    ctx = sol.ctx
    return ctx.sums(map(ctx.element_index, sol.c), sol.weights)


def _solve_over(ctx: FieldCtx, weights: tuple[int, ...]):
    """First solution over ctx in the order of the full scan, or None.

    The linear equation fixes c_1 = -L/w_1 with L = sum_{j>=2} w_j c_j; times
    w_1, the quadratic one reads L^2 + w_1 Q = 0, Q = sum_{j>=2} w_j c_j^2. A
    slice fixes (c_3, c_4) and runs c_2 over the codes. With M and N the
    weighted sum and square sum of (c_3, c_4), the test is

        A c_2^2 + B c_2 + C = 0,  A = w_2 (w_2 + w_1), B = 2 w_2 M, C = M^2 + w_1 N,

    and the slice's first solution is its root with the least code. The zero
    slice (B = C = 0) has c_2 = e first when A = 0, else only the skipped
    all-zero candidate. Elsewhere A != 0 and the roots are (-w_2 M +- s)/A,
    s^2 = B^2/4 - AC = -w_1 (w_2 M^2 + A N), by one `sqrt`. By homogeneity
    the next slices are c_3 = e and, if r >= 5, c_4 = e with c_3 over all
    codes, a block with a solution (module docstring): q + 1 roots at most.
    The weights, A, 1/A and the other coefficients lie in GF(p): they are
    computed as ints mod p and lifted once each by `ctx.el`, so the kernel
    inverts none of them. Each slice evaluates M, N and s^2 by these
    formulas in field arithmetic.
    """
    p, r = ctx.p, len(weights)
    w1, w2, w3, w4 = weights[:4]
    a = w2 * (w2 + w1) % p
    zero, e = ctx.zero, ctx.element_at(1)
    if not a:  # w_2 = -w_1: every c_2 solves the zero prefix, and c_1 = c_2
        return (e, e) + (zero,) * (r - 2)
    # s^2 = s2_m M^2 + s2_n N
    w2, w3, w4, inv_a, s2_m, s2_n, neg_inv_w1 = map(
        ctx.el, (w2, w3, w4, pow(a, -1, p), -w1 * w2, -w1 * a, -pow(w1, -1, p))
    )
    slices = [(e, zero)]
    if r >= 5:
        slices = chain(slices, ((x, e) for x in ctx.elements()))
    for c3, c4 in slices:
        m = c3 * w3 + c4 * w4
        n = c3 * c3 * w3 + c4 * c4 * w4
        s = (m * m * s2_m + n * s2_n).sqrt()
        if s is not None:
            t = m * -w2
            c2 = min((t + s) * inv_a, (t - s) * inv_a, key=ctx.element_index)
            c1 = (c2 * w2 + m) * neg_inv_w1
            return (c1, c2, c3, c4) + (zero,) * (r - 4)
    return None


def solve_block_system(profile: BinaryProfile, p: int) -> BlockSolution:
    """Solve the block system for (profile, p) over GF(p^k), k the degree
    that `solution_field_degree` names.

    The gate (`check_hypotheses`) decides first: p must be an odd prime, and
    an (n, p) it does not admit raises InvalidProfileError over GF(p), the
    r < 4 reason ahead of p not dividing n. A solution exists over the named
    field; `field_make` refuses GF(p^2) above p = 1024.
    """
    n, r = profile.n, profile.r
    decision = check_hypotheses(n, p)
    if not decision.applies:
        if R_TOO_SMALL in decision.reasons:
            message = f"binary presentation of {n} has r = {r} < 4 terms; no construction applies"
        else:
            message = f"{p} does not divide {n}; the block weights cannot balance"
        raise InvalidProfileError(message, field_make(p, 1))
    weights = weights_mod_p(profile, p)
    ctx = field_make(p, solution_field_degree(profile, p))
    c = _solve_over(ctx, weights)
    if c is None:
        raise RuntimeError(
            f"no solution for n={n}, p={p}: contradicts the existence guarantee"
        )
    return BlockSolution(profile, weights, c, ctx)


class BlockLift(Record):
    """The lift of a block solution held as runs: codes[i], the code of c_i,
    repeated counts[i] = 2^(m_i) times, runs in profile order (any iterables
    of ints, kept as tuples). It checks what `AmbientPoint` checks of its
    codes on the r runs: int codes below the field size, and at least 2
    coordinates; and every count at least 1, one count per code."""

    __slots__ = ("ctx", "codes", "counts")

    def __init__(self, ctx: FieldCtx, codes, counts):
        codes, counts = tuple(codes), tuple(counts)
        total = sum(counts)
        if type(sum(codes)) is not int or type(total) is not int:  # a float sums to a float, a str raises
            raise TypeError("a lift's codes and counts are ints")
        if len(codes) != len(counts) or total < 2 or min(counts) < 1:
            raise ValueError("a lift needs one count of at least 1 per code, and at least 2 coordinates")
        if not 0 <= min(codes) <= max(codes) < ctx.size:
            raise ValueError("each code of a lift is below the field size")
        Record.__init__(self, ctx, codes, counts)


def lift_block_solution(sol: BlockSolution) -> BlockLift:
    """Repeat c_i across 2^(m_i) consecutive coordinates, blocks in profile
    order, as the runs of a `BlockLift`, in O(r) time and memory for any n.
    The lift has coordinate sum and square sum equal to the two system sums,
    hence zero, and it avoids the constant-vector locus because some c_i
    differs from c_r = 0. The document's cap on a lift's length is the CLI's
    (`cli._block`): a certificate writes one row per coordinate."""
    return BlockLift(sol.ctx, map(sol.ctx.element_index, sol.c), sol.profile.block_sizes())
