"""Gauss-Jordan elimination on `gf`'s lane vectors: the certificate's fast oracle.

`quadcert.compression.rank_certificate` reads its ranks off the generator
Jacobian's structure and never eliminates. The tests check it by
eliminating: here, with the pivot fixed as the first nonzero entry of each
column, so echelon forms are reproducible, and one lane vector a matrix
row, for every field. A matrix is a nonempty sequence of rows of elements
of one field, as in `_gaussref`. A pivot row is scaled by the inverse of its
pivot, and each update row - c * prow is one product and one subtraction of
the Barrett kernel. The property tests in test_linalg.py pin it to `_gaussref`,
the same elimination on element objects, which is too slow to be the
certificate tests' oracle: test_compression.py ran in 2.4 s on this one and
in 11 s on `_gaussref` (Python 3.11, 2 shared vCPUs).
"""

from _gaussref import columns


def _lanes(rows):
    """One lane vector per row of elements; ragged rows raise ValueError."""
    columns(rows)
    ctx = rows[0][0].ctx
    return [ctx.lanes(map(ctx.element_index, row)) for row in rows]


def _rref(rows):
    """In-place Gauss-Jordan on lane vectors, one a row; returns pivot
    columns. Pivot = first row with a nonzero entry in the column, scanning
    down from the current pivot row."""
    pivots = []
    for col in range(len(rows[0])):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr] = rows[pr] * rows[pr][col].inverse()
        for i, row in enumerate(rows):
            if i != pr and (c := row[col]):
                rows[i] = row - prow * c
        pivots.append(col)
    return pivots


def rank(rows):
    """Rank over the field, by exact elimination."""
    return len(_rref(_lanes(rows)))


def kernel_basis(rows):
    """Echelon-normalized basis of the right null space {v : m v = 0}.

    One basis vector per free column, carrying 1 there, 0 at the other free
    columns, and the negated reduced-echelon entry at each pivot column.
    """
    echelon = _lanes(rows)
    pivots = _rref(echelon)
    pivot_set = set(pivots)
    ncols, ctx = len(rows[0]), rows[0][0].ctx
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for j, pc in enumerate(pivots):
            v[pc] = -echelon[j][free]
        basis.append(tuple(v))
    return basis


def restricted_rank(rows, basis):
    """Rank of the rows composed with the inclusion of span(basis): the rank
    of the matrix whose columns are m b for b in basis, m the rows."""
    basis, ncols = [tuple(b) for b in basis], columns(rows)
    for b in basis:
        if len(b) != ncols:
            raise ValueError(f"basis vector of length {len(b)}, expected {ncols}")
    if not basis:
        return 0
    # row i of m B is the sum of m[i][l] times row l of B (columns b)
    brows = _lanes(list(zip(*basis)))
    zero = rows[0][0].ctx.lanes([0] * len(basis))
    images = [sum((brow * x for x, brow in zip(mrow, brows) if x), zero) for mrow in rows]
    return len(_rref(images))
