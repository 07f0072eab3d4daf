"""The sampler's law: the coordinate set of a seeded point is uniform over
the exact locus, and the pair completions per point follow the locus count.

A try draws an ordered tail of n - 2 codes, uniform with replacement, and
completes the leading pair, the +sqrt root first. Each n-set S on the locus
has exactly C(n, 2) (n - 2)! = n!/2 tails that complete to it: choose the
pair, then order the rest. So the returned set is uniform over the N(n, q)
sets that `_locusref.locus` enumerates. A try reaches the completion only
when its tail is distinct, and then succeeds with probability
pi = (n!/2) N / (q)_(n-2), (q)_m the falling factorial. So the completions
per point are geometric, with mean 1/pi = (q)_(n-2) / ((n!/2) N) and standard
deviation sqrt(1 - pi)/pi.

Each case draws SAMPLES points, their seeds the outputs of a SplitMix64 on
the fixed MASTER seed, so the test is deterministic. Its thresholds were
fixed before its first run, and are not tuned to pass:
- every drawn set lies on the enumerated locus;
- the chi-square statistic of the set frequencies against the uniform law
  over all N sets, on N - 1 degrees of freedom, has an upper tail above
  P_MIN, the tail computed exactly (`chi2_upper_tail`);
- the mean completions per point lie within SE_MAX standard errors of 1/pi.
"""

import math

import pytest

import quadcert.quadric as quadric
from _fieldref import Ring, coefficient_rows, smallest_irreducible
from _locusref import locus
from quadcert.gf import field_make
from quadcert.rng import SplitMix64

MASTER = 20
SAMPLES = 3000
P_MIN = 1e-4
SE_MAX = 5
CASES = ((5, 13, 1), (5, 5, 2), (6, 5, 2), (6, 3, 3))  # (n, p, k)
LIMIT = 3 * 10**5  # C(27, 6) = 296010 subsets to enumerate


def chi2_upper_tail(x: float, df: int) -> float:
    """P(X >= x) for X chi-square on df degrees of freedom: Q(df/2, x/2), the
    upper regularized gamma, from Q(1, h) = e^-h or Q(1/2, h) = erfc(sqrt h)
    by Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1), each term in logs."""
    h, a = x / 2, 1 - df % 2 / 2
    if h == 0:
        return 1.0
    tail = math.exp(-h) if a == 1 else math.erfc(math.sqrt(h))
    while a < df / 2:
        tail += math.exp(a * math.log(h) - h - math.lgamma(a + 1))
        a += 1
    return tail


@pytest.mark.parametrize("df", (1, 2, 3, 29, 267, 350))
def test_the_tail_is_the_integral_of_the_density(df):
    # Simpson's rule on the density from x to where it has vanished, at the
    # mean and at points whose tail is about P_MIN and below
    def density(t):
        return math.exp((df / 2 - 1) * math.log(t) - t / 2 - df / 2 * math.log(2) - math.lgamma(df / 2))

    for x in (df, df + 4 * math.sqrt(2 * df) + 10, df + 6 * math.sqrt(2 * df) + 20):
        steps, end = 20000, x + 200 + 20 * math.sqrt(df)
        width = (end - x) / steps
        weights = [1] + [4, 2] * (steps // 2 - 1) + [4, 1]
        integral = width / 3 * sum(w * density(x + i * width) for i, w in enumerate(weights))
        assert math.isclose(chi2_upper_tail(x, df), integral, rel_tol=1e-6), (x, integral)


@pytest.mark.parametrize("n, p, k", CASES, ids=[f"n{n}-gf{p**k}" for n, p, k in CASES])
def test_the_sampler_draws_the_locus_uniformly(n, p, k, monkeypatch):
    ctx, q = field_make(p, k), p**k
    sets = list(locus(Ring(p, k, smallest_irreducible(p, k) if k > 1 else (0, 1)), n, LIMIT))
    completions = 0
    complete = quadric.complete_quadric_pair

    def spy(ctx, codes):
        nonlocal completions
        completions += 1
        return complete(ctx, codes)

    monkeypatch.setattr(quadric, "complete_quadric_pair", spy)
    master = SplitMix64(MASTER)
    drawn = [quadric.sample_quadric_point(n, ctx, master.next_u64()).codes for _ in range(SAMPLES)]
    counts = dict.fromkeys(sets, 0)
    for codes in drawn:
        point = frozenset(coefficient_rows(ctx, codes))
        assert point in counts, codes
        counts[point] += 1

    expected = SAMPLES / len(sets)
    chi2 = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi2_upper_tail(chi2, len(sets) - 1) > P_MIN, (chi2, len(sets))

    pi = math.factorial(n) // 2 * len(sets) / math.perm(q, n - 2)
    error = math.sqrt(1 - pi) / pi / math.sqrt(SAMPLES)
    assert abs(completions / SAMPLES - 1 / pi) <= SE_MAX * error, (completions / SAMPLES, 1 / pi)
