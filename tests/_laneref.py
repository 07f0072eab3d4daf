"""Gauss-Jordan elimination on `gf`'s lane vectors: the certificate's fast oracle.

`quadcert.compression.rank_certificate` reads its ranks off the generator
Jacobian's structure and never eliminates. The tests check it by
eliminating: here, with the pivot fixed as the first nonzero entry of each
column, so echelon forms are reproducible, and one lane vector a matrix
row, for every field. A pivot row is scaled by the inverse of its pivot,
and each update row - c * prow is one product and one subtraction of the
Barrett kernel. The property tests in test_linalg.py pin it to `_gaussref`,
the same elimination on element objects, which is too slow to be the
certificate tests' oracle: test_compression.py ran in 2.4 s on this one and
in 11 s on `_gaussref` (Python 3.11, 2 shared vCPUs).
"""

from quadcert.errors import DimensionMismatchError

from _gaussref import row_lists


def _lanes(ctx, rows):
    """One lane vector per row of elements."""
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


def rank(m):
    """Rank over the field, by exact elimination."""
    return len(_rref(_lanes(m.ctx, row_lists(m))))


def kernel_basis(m):
    """Echelon-normalized basis of the right null space {v : m v = 0}.

    One basis vector per free column, carrying 1 there, 0 at the other free
    columns, and the negated reduced-echelon entry at each pivot column.
    """
    rows = _lanes(m.ctx, row_lists(m))
    pivots = _rref(rows)
    pivot_set = set(pivots)
    zero, one = m.ctx.zero, m.ctx.one
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for j, pc in enumerate(pivots):
            v[pc] = -rows[j][free]
        basis.append(tuple(v))
    return basis


def restricted_rank(m, basis):
    """Rank of m composed with the inclusion of span(basis): the rank of the
    matrix whose columns are m b for b in basis."""
    basis = [tuple(b) for b in basis]
    for b in basis:
        if len(b) != m.cols:
            raise DimensionMismatchError(
                f"basis vector of length {len(b)}, expected {m.cols}"
            )
    if not basis:
        return 0
    # row i of m B is the sum of m[i][l] times row l of B (columns b)
    brows = _lanes(m.ctx, zip(*basis))
    zero = m.ctx.lanes([0] * len(basis))
    rows = [sum((brow * x for x, brow in zip(mrow, brows) if x), zero) for mrow in row_lists(m)]
    return len(_rref(rows))
