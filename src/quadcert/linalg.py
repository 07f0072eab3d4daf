"""Matrices over GF(p^k) and their product with a vector.

`compression.compression_jacobian` returns its Jacobian as a `Matrix`, and
`matvec` applies one: acceptance criterion 5 checks J x = 0 and J 1 = 0
with them, the two invariances the certificate rests on. Nothing here
eliminates. The certificate reads its ranks off the generator Jacobian's
structure (`compression`), and the tests' elimination oracles live in
tests/ (`_laneref`, on `gf`'s lane vectors, and `_gaussref`, on elements).
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .gf import FieldCtx


class Matrix:
    """Immutable row-major matrix of FieldElements over one context."""

    __slots__ = ("rows", "cols", "entries", "ctx")

    def __init__(self, rows: int, cols: int, entries, ctx: FieldCtx):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise DimensionMismatchError("matrix must have positive dimensions")
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.ctx = ctx
        for e in entries:
            if e.ctx is not ctx:
                raise ValueError("matrix entries from different fields")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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
