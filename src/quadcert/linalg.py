"""Exact dense linear algebra over GF(p^k): rank, kernel basis, row reduction.

Everything reduces to one Gauss-Jordan routine with the pivot fixed as the
first nonzero entry of each column, so echelon forms (and therefore every
serialized certificate) are reproducible. It runs on `gf`'s lane vectors,
one a matrix row, for every field: a pivot row is scaled by the inverse of
its pivot, and each update row - c * prow is one product and one subtraction
of the Barrett kernel. A property test pins it to an object-level
elimination in tests/. Rank certificates read their ranks off the generator
Jacobian's structure (`compression`), so no CLI command eliminates; this
module is not exported from the package and is the tests' oracle for them.
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .gf import FieldCtx, LaneVector


class Matrix:
    """Immutable row-major matrix of FieldElements over one context."""

    __slots__ = ("rows", "cols", "entries", "ctx")

    def __init__(self, rows: int, cols: int, entries, ctx: FieldCtx | None = None):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise DimensionMismatchError("matrix must have positive dimensions")
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.ctx = ctx if ctx is not None else entries[0].ctx
        for e in entries:
            if e.ctx != self.ctx:
                raise ValueError("matrix entries from different fields")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_list) -> "Matrix":
        rows_list = [list(r) for r in rows_list]
        ncols = len(rows_list[0])
        for r in rows_list:
            if len(r) != ncols:
                raise DimensionMismatchError("ragged rows")
        flat = [e for r in rows_list for e in r]
        return cls(len(rows_list), ncols, flat)

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        flat = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.cols, self.rows, flat, self.ctx)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return (self.rows, self.cols, self.entries) == (
                other.rows,
                other.cols,
                other.entries,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ctx!r})"


def matvec(m: Matrix, v) -> tuple:
    v = tuple(v)
    if len(v) != m.cols:
        raise DimensionMismatchError("vector length does not match column count")
    out = []
    for i in range(m.rows):
        acc = m.ctx.zero
        for a, x in zip(m.row(i), v):
            if not a.is_zero():
                acc = acc + a * x
        out.append(acc)
    return tuple(out)


def _lanes(ctx: FieldCtx, rows) -> list[LaneVector]:
    """One lane vector per row of elements."""
    return [ctx.lanes(map(ctx.element_index, row)) for row in rows]


def _rref(rows: list[LaneVector]) -> list[int]:
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


def rank(m: Matrix) -> int:
    """Rank over the field, by exact elimination."""
    return len(_rref(_lanes(m.ctx, m.row_lists())))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    rows = _lanes(m.ctx, m.row_lists())
    pivots = _rref(rows)
    return Matrix(m.rows, m.cols, [e for row in rows for e in row], m.ctx), pivots


def kernel_basis(m: Matrix) -> list[tuple]:
    """Echelon-normalized basis of the right null space {v : m v = 0}.

    One basis vector per free column, carrying 1 there, 0 at the other free
    columns, and the negated reduced-echelon entry at each pivot column.
    """
    rows = _lanes(m.ctx, m.row_lists())
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


def restricted_rank(m: Matrix, basis) -> int:
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
    rows = [sum((brow * x for x, brow in zip(mrow, brows) if x), zero) for mrow in m.row_lists()]
    return len(_rref(rows))
