"""Reference Gauss-Jordan elimination on FieldElement objects.

The slow, obviously correct counterpart of the lane elimination in
`_laneref`: the same pivot rule (the first nonzero entry of the column,
scanning top to bottom) carried out with the field's own operators, one
element at a time, no lane vectors. The property tests in test_linalg.py pin
the lane elimination to it, over prime and extension fields. `matrix` is how
the tests build a `quadcert.linalg.Matrix` from its rows, and `row_lists`
reads them back.
"""

from quadcert.errors import DimensionMismatchError
from quadcert.linalg import Matrix


def matrix(rows):
    """The Matrix of these rows of elements of one field."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError("ragged rows")
    return Matrix(len(rows), len(rows[0]), [e for r in rows for e in r], rows[0][0].ctx)


def row_lists(m):
    """The rows of m, each a list of elements."""
    return [list(m.row(i)) for i in range(m.rows)]


def _gauss_jordan(rows, ncols):
    pivots = []
    pr = 0
    for col in range(ncols):
        sel = next((i for i in range(pr, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        f = rows[pr][col].inverse()
        rows[pr] = [f * x for x in rows[pr]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != pr and c:
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return pivots


def rank(m):
    return len(_gauss_jordan(row_lists(m), m.cols))


def rref(m):
    rows = row_lists(m)
    pivots = _gauss_jordan(rows, m.cols)
    return matrix(rows), pivots


def kernel_basis(m):
    rows = row_lists(m)
    pivots = _gauss_jordan(rows, m.cols)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [m.ctx.zero] * m.cols
        v[free] = m.ctx.one
        for j, pc in enumerate(pivots):
            v[pc] = -rows[j][free]
        basis.append(tuple(v))
    return basis


def restricted_rank(m, basis):
    if not basis:
        return 0
    images = []
    for i in range(m.rows):
        row = m.row(i)
        images.append([sum((a * x for a, x in zip(row, b)), m.ctx.zero) for b in basis])
    return len(_gauss_jordan(images, len(basis)))
