"""Brute-force affine set-stabilizer: the maps x -> alpha x + beta of
AGL(1, q) that carry a set S of field elements onto itself.

Elements are coefficient tuples, low degree first, as a certificate writes
them, and the arithmetic is `_fieldref`'s: nothing of the package is used. A
map that fixes S sends x_1 to some y in S, so for each alpha != 0 and each y
in S only beta = y - alpha x_1 can work. A candidate is dropped at the first
element it moves out of S, and alpha x is computed only when a candidate
first needs it, so most alphas cost two or three products.

The order is 1 exactly when the only such map is the identity, so that the
orbit of S under the affine group is free.
"""

from functools import cache, partial
from itertools import product

from _fieldref import Ring, add, mul, sub


def ring(field: dict) -> Ring:
    """The ring of a certificate's `field` object."""
    return Ring(field["p"], field["k"], tuple(field["modulus"]))


def stabilizer_order(field: Ring, points) -> int:
    """The number of (alpha, beta) with alpha != 0 and alpha S + beta = S,
    where S is the set of the given elements (lists or tuples)."""
    xs = list(dict.fromkeys(map(tuple, points)))
    s = set(xs)
    order = 0
    for alpha in product(range(field.p), repeat=field.k):
        if not any(alpha):
            continue
        scaled = cache(partial(mul, field, alpha))
        for y in xs:
            beta = sub(field, y, scaled(xs[0]))
            order += all(add(field, scaled(x), beta) in s for x in xs)
    return order
