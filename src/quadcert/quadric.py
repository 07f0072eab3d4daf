"""The affine quadric cut out by the first two power sums, over GF(p^k).

A length-n point lies on the quadric iff its coordinate sum and its square
sum both vanish (odd characteristic makes this equivalent to the vanishing of
the first two elementary symmetric functions). The discriminant locus is
where two coordinates collide; the small diagonal is the constant vectors,
and it is exactly where the quadric is singular.

A point is held as the codes of its coordinates (see `gf`), and it is built
from them, `AmbientPoint(ctx, codes)`: the sampler draws codes, pair
completion maps tail codes to pair codes on packed integers
(`FieldCtx.complete_pair`, no element built), and collision tests work per
distinct code, as does `cli` when it writes a point. `FieldElement`s are
the boundary (`coords` decodes them all with one `FieldCtx.elements_at`;
`actions.affine_act` moves them). A
block lift is no point: `trace_system.BlockLift` holds its r runs, and of
this module `power_sums` and `in_small_diagonal` read one.

Both power sums come from `FieldCtx.sums`, in plain integers with one
reduction per sum (the kernel is described in `gf`). It also serves the
block system, whose two sums are those of its lift (`trace_system`): the
c_i with multiplicities w_i = 2^(m_i) mod p; the lift itself, its run
counts 2^(m_i) taken as multiplicities; and the invariance report, whose
sums are those of a moved point that `power_sums` never builds, with the
unmoved point's from the same packing. `on_quadric` is the Library's test
of membership; the commands read the sums themselves.
"""

from __future__ import annotations

from .errors import NoPointFoundError, UsageError
from .gf import FieldCtx, FieldElement, retired
from .record import Record
from .rng import LANES, SplitMix64

kernel_basis = retired  # a benchmark tracer target


class AmbientPoint(Record):
    """A length-n coordinate vector over one field context, held as the codes
    of its coordinates (any iterable of int codes, kept as a tuple)."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, codes):
        codes = tuple(codes)
        if type(sum(codes)) is not int:  # a float sums to a float, a str raises
            raise TypeError("a point's codes are ints")
        if len(codes) < 2 or min(codes) < 0 or max(codes) >= ctx.size:
            raise ValueError("a point needs at least 2 coordinates, each a code below the field size")
        Record.__init__(self, ctx, codes)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        return tuple(self.ctx.elements_at(self.codes))


def power_sums(a, move=None) -> tuple[FieldElement, FieldElement]:
    """(sum of coordinates, sum of squared coordinates), exactly, of a point
    or of a block lift (`trace_system.BlockLift`), whose run counts are its
    codes' multiplicities; with move = (alpha, beta), the pair of the moved
    point alpha a + beta, which is not built, then the pair of a, both from
    one packing of a's codes (`FieldCtx.sums`)."""
    return a.ctx.sums(a.codes, getattr(a, "counts", None), move)


def on_quadric(a: AmbientPoint) -> bool:
    s1, s2 = power_sums(a)
    return s1.is_zero() and s2.is_zero()


def in_discriminant(a: AmbientPoint) -> bool:
    """True iff two coordinates are exactly equal."""
    return len(set(a.codes)) < a.n


def in_small_diagonal(a) -> bool:
    """True iff all coordinates are equal, for a point or a block lift
    (`trace_system.BlockLift`): both hold their coordinates' codes, and a
    lift's runs repeat each of its codes."""
    return len(set(a.codes)) < 2


def complete_quadric_pair(ctx: FieldCtx, codes) -> tuple[int, int] | None:
    """Given the codes of x_3, ..., x_n, the codes of the two leading
    coordinates that put the full vector on the quadric, or None when the
    discriminant is a nonsquare.

    With S and Q the sum and square sum of the tail, x_1 and x_2 are the
    roots of t^2 + S t + (S^2 + Q)/2, whose discriminant is -S^2 - 2Q. The
    root using +sqrt goes first; sqrt's own tie-break makes this canonical.
    The whole completion runs on packed integers in `FieldCtx.complete_pair`;
    this name stays, as the benchmark tracer counts its calls.
    """
    return ctx.complete_pair(codes)


def default_max_tries(ctx: FieldCtx) -> int:
    return 64 * ctx.size


def sample_quadric_point(
    n: int, ctx: FieldCtx, seed: int, max_tries: int | None = None
) -> AmbientPoint:
    """A seeded point on the quadric with pairwise distinct coordinates.

    Each try draws the codes of x_3, ..., x_n uniformly (SplitMix64),
    completes them to the codes of (x_1, x_2), and retries on a nonsquare
    discriminant or any coordinate collision, found by code. A try always
    draws all n - 2 codes, so the seed fixes the stream of tries; no code is
    decoded to an element, and only the point returned is built. Tries are
    drawn ahead in batches of 1, 2, 4, ... tries, each batch one `draw` of at
    most `LANES` codes (or of one try), sliced n - 2 codes a try. A `draw`
    returns the stream's next codes whatever its count, so batching never
    changes which codes a try gets, and no batch holds more tries than the
    ones before it plus one. Raises NoPointFoundError after max_tries, or at
    once when n exceeds the field size (n pairwise distinct coordinates need n
    elements); over small fields the locus can be genuinely empty, so the
    message suggests retrying over an extension. Raises UsageError when n < 5.
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
            f"and the field has {ctx.size}; retry over an extension field (larger k)",
            ctx,
        )
    rng = SplitMix64(seed)
    size, width = ctx.size, n - 2
    most = max(1, LANES // width)
    batch, left = 1, max_tries
    while left > 0:
        tries = min(batch, left)
        codes = rng.draw(size, tries * width)
        for start in range(0, tries * width, width):
            tail = codes[start : start + width]
            drawn = set(tail)
            if len(drawn) < width:
                continue
            pair = complete_quadric_pair(ctx, tail)
            if pair is None or pair[0] == pair[1] or not drawn.isdisjoint(pair):
                continue
            return AmbientPoint(ctx, pair + tuple(tail))
        left -= tries
        batch = min(2 * batch, most)
    raise NoPointFoundError(
        f"no distinct-coordinate point on the quadric found for n={n} over {ctx!r} "
        f"in {max_tries} tries; the locus may be empty here, retry over an "
        f"extension field (larger k)",
        ctx,
    )
