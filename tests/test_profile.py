"""Binary block profiles and the applicability gate."""

import pytest
from hypothesis import given, strategies as st

from _docref import written
from quadcert.errors import EvenCharacteristicError, NotPrimeError, UsageError
from quadcert.profile import (
    OK,
    NEEDS_QUADRATIC_EXTENSION,
    P_NOT_DIVIDING_N,
    R_TOO_SMALL,
    SMALL_N,
    binary_profile,
    check_hypotheses,
)


def test_profile_pins():
    assert binary_profile(15).exponents == (3, 2, 1, 0)
    assert binary_profile(45).exponents == (5, 3, 2, 0)
    assert binary_profile(31).exponents == (4, 3, 2, 1, 0)
    assert binary_profile(16).exponents == (4,)
    assert binary_profile(1).exponents == (0,)


def test_profile_r_and_blocks():
    prof = binary_profile(45)
    assert prof.r == 4
    assert prof.block_sizes() == (32, 8, 4, 1)
    assert sum(prof.block_sizes()) == 45


def test_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        binary_profile(0)
    with pytest.raises(ValueError):
        binary_profile(-3)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_profile_reconstructs(n):
    prof = binary_profile(n)
    assert sum(2 ** m for m in prof.exponents) == n
    assert prof.exponents == tuple(sorted(prof.exponents, reverse=True))
    assert len(set(prof.exponents)) == prof.r
    assert prof.r == bin(n).count("1")


def test_check_pins():
    d = check_hypotheses(15, 3, available_degree=2)
    assert d.applies and d.required_field_degree == 2 and d.reasons == (OK,)

    d = check_hypotheses(15, 3)
    assert d.applies and d.reasons == (NEEDS_QUADRATIC_EXTENSION,)

    d = check_hypotheses(21, 3)
    assert not d.applies and d.r == 3 and R_TOO_SMALL in d.reasons

    d = check_hypotheses(16, 3)
    assert not d.applies
    assert P_NOT_DIVIDING_N in d.reasons and R_TOO_SMALL in d.reasons

    d = check_hypotheses(31, 31)
    assert d.applies and d.required_field_degree == 1 and d.reasons == (OK,)


def test_small_n_flagged_but_not_blocking():
    # n = 3 divides by 3 and has two binary terms; smallness is
    # reported alongside the real blockers, never alone as a refusal
    d = check_hypotheses(3, 3)
    assert not d.applies
    assert SMALL_N in d.reasons
    d2 = check_hypotheses(15, 3)
    assert SMALL_N not in d2.reasons


def test_n_of_5_is_not_small():
    # 5 is the least n the gate takes as large enough: here only r blocks
    assert check_hypotheses(5, 5, 1).reasons == ("RTooSmall",)


def test_check_validates_characteristic():
    with pytest.raises(EvenCharacteristicError):
        check_hypotheses(15, 2)
    with pytest.raises(NotPrimeError):
        check_hypotheses(15, 9)
    # refused at the field-size limit before trial division could spin
    with pytest.raises(UsageError, match="exceeds the limit"):
        check_hypotheses(15, 1_000_000_000_000_000_003)
    # p is checked by field_make, which takes an int alone
    with pytest.raises(TypeError, match="p and k must be integers"):
        check_hypotheses(15, 3.0)


@given(
    st.integers(min_value=1, max_value=5000),
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=4),
)
def test_applies_matches_arithmetic(n, p, deg):
    d = check_hypotheses(n, p, available_degree=deg)
    r = bin(n).count("1")
    assert d.applies == (n % p == 0 and r >= 4)
    assert d.required_field_degree == (2 if r == 4 else 1)
    if d.applies:
        ok = r >= 5 or deg % 2 == 0
        assert (d.reasons == (OK,)) == ok
    else:
        assert OK not in d.reasons
        assert d.reasons  # at least one concrete reason


def test_written_decision():
    doc = written(check_hypotheses(15, 3, available_degree=2))
    assert doc == {
        "n": 15,
        "p": 3,
        "r": 4,
        "applies": True,
        "available_degree": 2,
        "required_field_degree": 2,
        "reasons": ["Ok"],
    }
