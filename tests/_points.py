"""Points written as field elements, for the tests that state them so.

The package builds a point from the codes of its coordinates,
`AmbientPoint(ctx, codes)`; `point` takes the coordinates as elements of one
field and converts them with `FieldCtx.element_index`.
"""

from quadcert.quadric import AmbientPoint


def point(coords):
    """The point with these coordinates, elements of one field."""
    coords = tuple(coords)
    ctx = coords[0].ctx
    return AmbientPoint(ctx, map(ctx.element_index, coords))
