"""The exact locus by brute force: every n-subset S of GF(q) with
sum of x = 0 and sum of x^2 = 0 over S.

Elements are coefficient tuples, low degree first, and squares come from
`_fieldref`: nothing of the package is used. A sum of elements is the sum of
their coefficient vectors mod p, so each element is packed once, with its
square, as 2k digits of WIDTH bits; a subset's packed sum holds each digit
sum without carry, and S is on the locus when every digit is 0 mod p. The
count N(n, q) is taken only where C(q, n) <= LIMIT, unless the caller
passes a higher limit.
"""

from itertools import combinations, product
from math import comb

from _fieldref import Ring, mul

LIMIT = 10**5
WIDTH = 12  # digit sums stay below q (p - 1) < 2^12 for q <= 64


def locus(field: Ring, n: int, limit: int = LIMIT):
    """Each n-subset on the locus, as a frozenset of elements."""
    q = field.p**field.k
    if comb(q, n) > limit or q * (field.p - 1) >= 1 << WIDTH:
        raise ValueError(f"the {n}-subsets of GF({q}) are too many to enumerate")
    packed = {}
    for x in product(range(field.p), repeat=field.k):
        digits = x + mul(field, x, x)
        packed[sum(d << (WIDTH * i) for i, d in enumerate(digits))] = x
    shifts = range(0, 2 * field.k * WIDTH, WIDTH)
    mask = (1 << WIDTH) - 1
    for subset in combinations(packed, n):
        total = sum(subset)
        if all((total >> s & mask) % field.p == 0 for s in shifts):
            yield frozenset(map(packed.__getitem__, subset))


def locus_count(field: Ring, n: int) -> int:
    """N(n, q), the number of n-subsets on the locus."""
    return sum(1 for _ in locus(field, n))
