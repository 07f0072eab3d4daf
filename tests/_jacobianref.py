"""The matrices the elimination oracle reduces, built apart from the certificate.

`quadcert.compression.rank_certificate` reads its ranks off closed-form
generator rows. The matrices here share no code with it: `gradient_matrix`
writes down the gradients of the two defining sums, and `generator_matrix`
differentiates each generator y_i = (x_1 - x_i)/(x_1 - x_2) with dual
numbers (`_dualnum`). The tests eliminate both with `quadcert.linalg`.
"""

from _dualnum import Dual
from quadcert.linalg import Matrix


def gradient_matrix(a):
    """The 2 x n matrix [1; 2x]: the gradients of sum x_i and sum x_i^2."""
    two = a.ctx.el(2)
    return Matrix.from_rows([[a.ctx.one] * a.n, [two * x for x in a.coords]])


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
        rows.append(row)
    return Matrix.from_rows(rows)
