"""Exact dense linear algebra over GF(p^k): rank, kernel basis, row reduction.

Everything reduces to one Gauss-Jordan routine with the pivot fixed as the
first nonzero entry of each column, so echelon forms (and therefore every
serialized certificate) are reproducible. It runs on integer codes (zero is
0) through one kernel for every field, prime fields included: discrete logs,
with a product as a sum of logs and one Zech-logarithm lookup per x - c*y
(Lidl and Niederreiter, *Finite Fields*, ch. 9). The O(q) log tables are
built on the field's first elimination: under 1 ms at GF(31) and GF(81),
6 ms at GF(625), about 0.1 s at GF(65521) and 1.3-3 s near q = 10^6.
A property test pins the kernel to an object-level elimination in tests/.
Rank certificates read their ranks off the generator Jacobian's structure
(`compression`), so no CLI command eliminates or builds the tables; this
module is not exported from the package and is the tests' oracle for them.
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .gf import FieldCtx


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


# --- the integer kernel: zero is code 0, so a code's truth value is the
# element's; rows are lists of codes, and scale and axpy return new lists.


class _LogOps:
    """Discrete logs over any GF(q): code 0 is zero, code e + 1 is g^e.

    With m = q - 1, a product is a sum of logs mod m, -1 is g^(m/2), and a sum
    g^a + g^b = g^(a + zech[b - a]) takes one Zech lookup (`FieldCtx.tables`).
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.exp, self.log, self.zech = ctx.tables()
        self.m = ctx.size - 1
        self.half = self.m // 2

    def encode(self, e):
        return self.log[self.ctx.element_index(e)] + 1

    def decode(self, s):
        return self.ctx.element_at(self.exp[s - 1]) if s else self.ctx.zero

    def inv(self, s):
        return (1 - s) % self.m + 1

    def scale(self, row, f):
        m = self.m
        f -= 2
        return [(x + f) % m + 1 if x else 0 for x in row]

    def axpy(self, row, c, prow):
        m, zech = self.m, self.zech
        c += self.half - 2  # log(-c y) = (y + c) % m
        out = []
        for x, y in zip(row, prow):
            if y:
                t = (y + c) % m
                if x:
                    z = zech[(t - x + 1) % m]
                    x = (x + z - 1) % m + 1 if z >= 0 else 0
                else:
                    x = t + 1
            out.append(x)
        return out

    def neg(self, s):
        return (s - 1 + self.half) % self.m + 1 if s else 0


def _rref(rows, ncols, ops) -> list[int]:
    """In-place Gauss-Jordan; returns pivot columns. Pivot = first row with a
    nonzero entry in the column, scanning top to bottom."""
    inv, scale, axpy = ops.inv, ops.scale, ops.axpy
    pivots = []
    pr = 0
    nrows = len(rows)
    for col in range(ncols):
        sel = -1
        for i in range(pr, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        rows[pr] = scale(rows[pr], inv(rows[pr][col]))
        prow = rows[pr]
        for i in range(nrows):
            if i != pr:
                c = rows[i][col]
                if c:
                    rows[i] = axpy(rows[i], c, prow)
        pivots.append(col)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _encode_rows(m: Matrix, ops) -> list[list]:
    enc = ops.encode
    return [[enc(e) for e in m.row(i)] for i in range(m.rows)]


def rank(m: Matrix) -> int:
    """Rank over the field, by exact elimination."""
    ops = _LogOps(m.ctx)
    rows = _encode_rows(m, ops)
    return len(_rref(rows, m.cols, ops))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    ops = _LogOps(m.ctx)
    rows = _encode_rows(m, ops)
    pivots = _rref(rows, m.cols, ops)
    dec = ops.decode
    flat = [dec(s) for row in rows for s in row]
    return Matrix(m.rows, m.cols, flat, m.ctx), pivots


def kernel_basis(m: Matrix) -> list[tuple]:
    """Echelon-normalized basis of the right null space {v : m v = 0}.

    One basis vector per free column, carrying 1 there, 0 at the other free
    columns, and the negated reduced-echelon entry at each pivot column.
    """
    ops = _LogOps(m.ctx)
    rows = _encode_rows(m, ops)
    pivots = _rref(rows, m.cols, ops)
    pivot_set = set(pivots)
    dec, neg = ops.decode, ops.neg
    zero, one = m.ctx.zero, m.ctx.one
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [zero] * m.cols
        v[free] = one
        for j, pc in enumerate(pivots):
            v[pc] = dec(neg(rows[j][free]))
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
    ops = _LogOps(m.ctx)
    neg, axpy = ops.neg, ops.axpy
    # row i of m B is the sum of m[i][l] times row l of B (columns b)
    brows = [[ops.encode(b[l]) for b in basis] for l in range(m.cols)]
    rows = []
    for mrow in _encode_rows(m, ops):
        acc = [0] * len(basis)
        for x, brow in zip(mrow, brows):
            if x:
                acc = axpy(acc, neg(x), brow)
        rows.append(acc)
    return len(_rref(rows, len(basis), ops))
