"""Reference block-system scan on packed integers.

The slow, plainly ordered counterpart of `quadcert.trace_system._solve_over`:
it walks every candidate suffix (c_2, ..., c_{nfree+1}) by increasing index,
c_2 fastest, and tests each one, where the solver solves one quadratic per
slice. c_1 = -L/w_1 with L = sum_{j>=2} w_j c_j, and the quadratic equation
times w_1 reads L^2 + w_1 Q = 0 with Q = sum_{j>=2} w_j c_j^2. The q elements
are packed once at a digit width that holds 12 k (p - 1)^4: over at most 3
scanned digits L's digits are at most 3 (p - 1)^2, so L^2 stays within
9 k (p - 1)^4 and w_1 Q within 3 k (p - 1)^4, and no digit carries. For
r >= 5 only (c_2, c_3, c_4) are scanned, with the rest zero (Chevalley-Warning,
see the `trace_system` module docstring). Its cost is up to q^min(r - 2, 3)
candidates, so the tests call it on small fields only.
"""

from itertools import islice, product
from operator import mul

from quadcert.gf import field_make


def scan_over(ctx, weights):
    """First solution over ctx in the order of the full scan, or None."""
    r = len(weights)
    q = ctx.size
    nfree = min(r - 2, 3)
    k, p, w1 = ctx.k, ctx.p, weights[0]
    width = (12 * k * (p - 1) ** 4).bit_length()
    packed = ctx._pack_codes(range(q), width)
    w1_squares = [w1 * x * x for x in packed]
    # per scanned digit, most significant first like product's tuples
    ws = weights[nfree:0:-1]
    for digits in islice(product(range(q), repeat=nfree), 1, None):
        lin = sum(map(mul, ws, map(packed.__getitem__, digits)))
        test = lin * lin + sum(map(mul, ws, map(w1_squares.__getitem__, digits)))
        if ctx._reduce(test, width, 2 * k - 1).is_zero():
            c1 = ctx._reduce(lin, width, k) * ctx.el(-pow(w1, -1, p))
            suffix = tuple(map(ctx.element_at, reversed(digits)))
            return (c1,) + suffix + (ctx.zero,) * (r - 1 - nfree)
    return None


def scan_solve(weights, p):
    """(c, field) of the first solution by trial: GF(p) first, GF(p^2)
    when r = 4 and GF(p) has no solution; (None, None) otherwise. It does
    not read `solution_field_degree`, so it checks the field the solver
    takes from that criterion independently."""
    fields = [field_make(p, 1)] + ([field_make(p, 2)] if len(weights) == 4 else [])
    for ctx in fields:
        c = scan_over(ctx, weights)
        if c is not None:
            return c, ctx
    return None, None
