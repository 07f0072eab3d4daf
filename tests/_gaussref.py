"""Reference Gauss-Jordan elimination on FieldElement objects.

The slow, obviously correct counterpart of the lane elimination in
`_laneref`: the same pivot rule (the first nonzero entry of the column,
scanning top to bottom) carried out with the field's own operators, one
element at a time, no lane vectors. The property tests in test_elimination_oracles.py pin
the lane elimination to it, over prime and extension fields. A matrix here,
as in `_laneref` and `_jacobianref`, is a nonempty sequence of rows of
elements of one field: the column count is `len(rows[0])` and the field
`rows[0][0].ctx`. `matvec` is the tests' one product of such rows with a
vector.
"""


def columns(rows):
    """The common length of the rows, which must not be ragged."""
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return len(rows[0])


def matvec(rows, v):
    """The product of the rows with the vector v, as a tuple of elements."""
    v, ncols = tuple(v), columns(rows)
    if len(v) != ncols:
        raise ValueError(f"vector of length {len(v)}, expected {ncols}")
    zero = rows[0][0].ctx.zero
    return tuple(sum((a * x for a, x in zip(row, v)), zero) for row in rows)


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


def rank(rows):
    return len(rref(rows)[1])


def rref(rows):
    """The reduced echelon form, as a list of row lists, and its pivot columns."""
    echelon = [list(r) for r in rows]
    pivots = _gauss_jordan(echelon, columns(rows))
    return echelon, pivots


def kernel_basis(rows):
    echelon, pivots = rref(rows)
    ncols, ctx = len(rows[0]), rows[0][0].ctx
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for j, pc in enumerate(pivots):
            v[pc] = -echelon[j][free]
        basis.append(tuple(v))
    return basis


def restricted_rank(rows, basis):
    if not basis:
        return 0
    zero = rows[0][0].ctx.zero
    images = [[sum((a * x for a, x in zip(row, b)), zero) for b in basis] for row in rows]
    return len(_gauss_jordan(images, len(basis)))
