"""The exact locus over small fields, by the brute-force oracle `_locusref`.

N(n, q) counts the n-subsets of GF(q) with sum of x = 0 and sum of x^2 = 0.
Over GF(q), q >= 5, both sums vanish on the whole field, so a set and its
complement are on the locus together: N(n) = N(q - n). No two distinct
elements have a + b = 0 and a^2 + b^2 = 2a^2 = 0 in odd characteristic, so
N(2) = N(q - 2) = 0. Three points with e_1 = e_2 = 0 are a coset of the cube
roots of unity, so N(3) = (q - 1) / 3 when 3 divides q - 1, else 0. Over
GF(11) the n = 5 locus is exactly the two cosets of the fifth roots of
unity, the sets that `certify 5 11` samples (`tests/test_stabilizer.py`).
The counts are checked wherever C(q, n) is at most `_locusref.LIMIT`. No
closed formula for N(n, q) is matched against them: the bound of ROADMAP
item 22, which decides whether the locus is empty, needs no count.
"""

from math import comb

import pytest

from _fieldref import Ring, smallest_irreducible
from _locusref import LIMIT, locus, locus_count

FIELDS = ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2))


def _ring(p: int, k: int) -> Ring:
    return Ring(p, k, smallest_irreducible(p, k) if k > 1 else (0, 1))


@pytest.mark.parametrize("p, k", FIELDS, ids=[f"gf{p**k}" for p, k in FIELDS])
def test_the_count_is_symmetric_and_vanishes_at_two(p, k):
    q = p**k
    counts = {n: locus_count(_ring(p, k), n) for n in range(q + 1) if comb(q, n) <= LIMIT}
    assert {n: counts[q - n] for n in counts} == counts
    assert counts[0] == counts[1] == 1  # the empty set and {0}
    assert counts[2] == counts[q - 2] == 0
    # three points with e_1 = e_2 = 0 are the roots of t^3 - e_3: a coset of
    # the cube roots of unity, (q - 1) / 3 of them when 3 divides q - 1
    assert counts[3] == ((q - 1) // 3 if (q - 1) % 3 == 0 else 0)


def test_the_n5_locus_over_gf11_is_the_two_cosets_of_mu5():
    f11 = _ring(11, 1)
    assert [locus_count(f11, n) for n in range(12)] == [1, 1, 0, 0, 0, 2, 2, 0, 0, 0, 1, 1]
    mu5 = {x for x in range(1, 11) if pow(x, 5, 11) == 1}
    assert mu5 == {1, 3, 4, 5, 9}
    cosets = {frozenset((a * x % 11,) for x in mu5) for a in range(1, 11)}
    assert set(locus(f11, 5)) == cosets == {
        frozenset((x,) for x in (1, 3, 4, 5, 9)),
        frozenset((x,) for x in (2, 6, 7, 8, 10)),
    }


def test_the_oracle_refuses_too_many_subsets():
    with pytest.raises(ValueError):
        locus_count(_ring(5, 2), 6)  # C(25, 6) = 177100
