"""The matrices the elimination oracle reduces, built apart from the certificate.

`quadcert.compression.rank_certificate` reads its ranks off closed-form
generator rows. The matrices here share no code with it: `gradient_matrix`
writes down the gradients of the two defining sums, and `generator_matrix`
differentiates each generator y_i = (x_1 - x_i)/(x_1 - x_2) with dual
numbers (`_dualnum`). Each is a tuple of rows, each row a tuple of
elements, as `quadcert.compression.compression_jacobian` returns the full
Jacobian, and the tests eliminate them with `_laneref`.

The certificate evaluates the closed-form rows as lane vectors;
`generator_rows` and `first_failing_row` are the same rows and checks one
field element at a time. `triples_by_loops` enumerates the ordered triples
in nested loops, the oracle of `quadcert.compression.ordered_triples`, and
`triple_positions` numbers the full Jacobian's rows by it.
"""

from _dualnum import Dual


def triples_by_loops(n):
    """All ordered triples of distinct indices in {1, ..., n}, lexicographic."""
    return tuple(
        (r, s, t)
        for r in range(1, n + 1)
        for s in range(1, n + 1)
        if s != r
        for t in range(1, n + 1)
        if t != r and t != s
    )


def triple_positions(n):
    """(r, s, t) -> its row in the full Jacobian, the index of the triple in
    the lexicographic enumeration."""
    return {trip: i for i, trip in enumerate(triples_by_loops(n))}


def gradient_matrix(a):
    """The 2 x n matrix [1; 2x]: the gradients of sum x_i and sum x_i^2."""
    two = a.ctx.el(2)
    return ((a.ctx.one,) * a.n, tuple(two * x for x in a.coords))


def generator_matrix(a):
    """The (n - 2) x n Jacobian of y_3, ..., y_n at the point a: row i - 3
    holds the partials of y_i in x_1, x_2 and x_i, one dual evaluation each,
    and zeros elsewhere."""
    ctx, xs = a.ctx, a.coords
    rows = []
    for i in range(2, a.n):
        row = [ctx.zero] * a.n
        for j in (0, 1, i):
            x1, x2, xi = (Dual(xs[m], ctx.one if m == j else ctx.zero) for m in (0, 1, i))
            row[j] = ((x1 - xi) / (x1 - x2)).b
        rows.append(tuple(row))
    return tuple(rows)


def generator_rows(a):
    """The nonzero entries (d/dx_1, d/dx_2, d/dx_i) of the generator rows
    i = 3, ..., n at the point a, with d = x_1 - x_2:

        ((x_i - x_2)/d^2, (x_1 - x_i)/d^2, -1/d)."""
    xs = a.coords
    x1, x2 = xs[0], xs[1]
    inv = (x1 - x2).inverse()
    isq = inv * inv
    minus_inv = -inv
    return [((xi - x2) * isq, (x1 - xi) * isq, minus_inv) for xi in xs[2:]]


def first_failing_row(a, rows):
    """The first row i of rows (entries as `generator_rows` gives them) with
    J.1 != 0 or J.x != 0 at the point a, None when every row passes."""
    xs = a.coords
    x1, x2 = xs[0], xs[1]
    for i, (d1, d2, di) in enumerate(rows, start=3):
        if not ((d1 + d2 + di).is_zero() and (d1 * x1 + d2 * x2 + di * xs[i - 1]).is_zero()):
            return i
    return None
