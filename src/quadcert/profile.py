"""Binary presentations of n and the hypothesis gate.

The gate decides whether a pair (n, p) is covered by the construction: p must
divide n and the binary presentation n = 2^(m_1) + ... + 2^(m_r) must have
r >= 4 terms. With exactly four terms the construction may need the quadratic
extension of GF(p), so the gate's required field degree is 2; with five or more
terms the prime field suffices. `solution_field_degree` names the exact field.
"""

from __future__ import annotations

from .errors import UsageError
from .gf import field_make
from .record import Record

# Structured reason codes carried by HypothesisDecision.reasons.
OK = "Ok"
P_NOT_DIVIDING_N = "PNotDividingN"
R_TOO_SMALL = "RTooSmall"
NEEDS_QUADRATIC_EXTENSION = "NeedsQuadraticExtension"
SMALL_N = "SmallN"  # n < 5: the geometric operations need at least 5 coordinates


class BinaryProfile(Record):
    """n together with its binary presentation, exponents descending."""

    __slots__ = ("n", "exponents")

    @property
    def r(self) -> int:
        return len(self.exponents)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(1 << m for m in self.exponents)


class HypothesisDecision(Record):
    """The gate's verdict on (n, p) in GF(p^available_degree), with its reasons."""

    __slots__ = ("applies", "required_field_degree", "reasons", "n", "p", "r", "available_degree")


def binary_profile(n: int) -> BinaryProfile:
    """The unique presentation n = sum of distinct powers of two."""
    if n < 1:
        raise UsageError("n must be a positive integer")
    exponents = tuple(m for m in range(n.bit_length() - 1, -1, -1) if (n >> m) & 1)
    return BinaryProfile(n, exponents)


def check_hypotheses(n: int, p: int, available_degree: int = 1) -> HypothesisDecision:
    """Gate decision for (n, p) with a working field GF(p^available_degree).

    applies is true iff p | n and r >= 4; required_field_degree is 2 exactly
    when r = 4. The reasons list carries Ok when the working field already
    suffices (GF(p^2) sits inside GF(p^k) iff k is even), or
    NeedsQuadraticExtension when r = 4 and the available degree is odd.
    Failures collect every code that applies, never just the first.
    """
    field_make(p)  # refuses a p that is not an odd prime
    if available_degree < 1:
        raise UsageError("available_degree must be at least 1")
    prof = binary_profile(n)
    r = prof.r
    applies = n % p == 0 and r >= 4
    required = 2 if r == 4 else 1
    reasons: list[str] = []
    if applies:
        if r == 4 and available_degree % 2 == 1:
            reasons.append(NEEDS_QUADRATIC_EXTENSION)
        else:
            reasons.append(OK)
    else:
        if n % p != 0:
            reasons.append(P_NOT_DIVIDING_N)
        if r < 4:
            reasons.append(R_TOO_SMALL)
        if n < 5:
            reasons.append(SMALL_N)
    return HypothesisDecision(applies, required, tuple(reasons), n, p, r, available_degree)


def solution_field_degree(profile: BinaryProfile, p: int) -> int:
    """The degree, 1 or 2, of the least field GF(p^k) over which the block
    system of an admitted profile (p | n, r >= 4) has a solution.

    For r >= 5 it is 1 (Chevalley-Warning, `trace_system` docstring). For
    r = 4, c_4 = 0, and eliminating c_1 = -(w_2 c_2 + w_3 c_3)/w_1 leaves
    the binary form

        w_2 (w_1 + w_2) c_2^2 + 2 w_2 w_3 c_2 c_3 + w_3 (w_1 + w_3) c_3^2.

    Its discriminant -4 w_1 w_2 w_3 (w_1 + w_2 + w_3) equals
    4 w_1 w_2 w_3 w_4 = 4 * 2^(m_1 + m_2 + m_3 + m_4), as sum w_i = n = 0
    mod p, and is never 0. So a zero (c_2, c_3) != 0, which is a solution
    c != 0, exists exactly when the discriminant is a square: when the
    exponent sum is even or 2 is a square mod p, that is p = +-1 mod 8.
    Every element of GF(p) is a square in GF(p^2).
    """
    if profile.r == 4 and sum(profile.exponents) % 2 and p % 8 in (3, 5):
        return 2
    return 1
