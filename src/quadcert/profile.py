"""Binary presentations of n and the hypothesis gate.

The gate decides whether a pair (n, p) is covered by the construction: p must
divide n and the binary presentation n = 2^(m_1) + ... + 2^(m_r) must have
r >= 4 terms. With exactly four terms the construction may need the quadratic
extension of GF(p), so the required field degree is 2; with five or more terms
the prime field suffices.
"""

from __future__ import annotations

from .errors import UsageError
from .gf import check_characteristic
from .record import Record, set_field

# Structured reason codes carried by HypothesisDecision.reasons.
OK = "Ok"
P_NOT_DIVIDING_N = "PNotDividingN"
R_TOO_SMALL = "RTooSmall"
NEEDS_QUADRATIC_EXTENSION = "NeedsQuadraticExtension"
SMALL_N = "SmallN"  # n < 5: the geometric operations need at least 5 coordinates


class BinaryProfile(Record):
    """n together with its binary presentation, exponents descending."""

    __slots__ = ("n", "exponents")

    def __init__(self, n: int, exponents: tuple[int, ...]):
        set_field(self, "n", n)
        set_field(self, "exponents", exponents)

    @property
    def r(self) -> int:
        return len(self.exponents)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(1 << m for m in self.exponents)


class HypothesisDecision(Record):
    __slots__ = ("applies", "required_field_degree", "reasons", "n", "p", "r", "available_degree")

    def __init__(
        self,
        applies: bool,
        required_field_degree: int,
        reasons: tuple[str, ...],
        n: int,
        p: int,
        r: int,
        available_degree: int,
    ):
        set_field(self, "applies", applies)
        set_field(self, "required_field_degree", required_field_degree)
        set_field(self, "reasons", reasons)
        set_field(self, "n", n)
        set_field(self, "p", p)
        set_field(self, "r", r)
        set_field(self, "available_degree", available_degree)


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
    check_characteristic(p)
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
    return HypothesisDecision(
        applies=applies,
        required_field_degree=required,
        reasons=tuple(reasons),
        n=n,
        p=p,
        r=r,
        available_degree=available_degree,
    )
