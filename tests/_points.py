"""Points written as field elements, and block lifts as points, for the
tests that state them so.

The package builds a point from the codes of its coordinates,
`AmbientPoint(ctx, codes)`; `point` takes the coordinates as elements of one
field and converts them with `FieldCtx.element_index`. A block lift is held
as runs (`trace_system.BlockLift`); `expanded` is the point of its n codes,
each run's code repeated its count times, for the tests that read a lift as
a point.
"""

from itertools import repeat

from quadcert.quadric import AmbientPoint


def point(coords):
    """The point with these coordinates, elements of one field."""
    coords = tuple(coords)
    ctx = coords[0].ctx
    return AmbientPoint(ctx, map(ctx.element_index, coords))


def expanded(lift):
    """The point of a block lift's n codes, its runs in order."""
    runs = zip(lift.codes, lift.counts)
    return AmbientPoint(lift.ctx, [c for code, count in runs for c in repeat(code, count)])
