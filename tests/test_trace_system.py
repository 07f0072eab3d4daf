"""Weighted block system: solver pins, enumeration oracles, and the field
criterion that sends r = 4 profiles to GF(p^2)."""

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _docref import written
from _points import expanded
from _scanref import brute_first, scan_solve
from quadcert.cli import _block
from quadcert.errors import EvenCharacteristicError, InvalidProfileError, NotPrimeError, UsageError
from quadcert.gf import SIZE_LIMIT, FieldCtx, _prime_factors, field_make
from quadcert.profile import binary_profile, check_hypotheses, solution_field_degree
from quadcert.quadric import in_small_diagonal, on_quadric, power_sums
from quadcert.trace_system import (
    BlockLift,
    BlockSolution,
    _solve_over,
    evaluate_system,
    lift_block_solution,
    solve_block_system,
    weights_mod_p,
)


def coeffs(sol):
    return tuple(e.coeffs[0] for e in sol.c)


def test_weights_pins():
    assert weights_mod_p(binary_profile(15), 3) == (2, 1, 2, 1)
    assert weights_mod_p(binary_profile(15), 5) == (3, 4, 2, 1)
    assert weights_mod_p(binary_profile(31), 31) == (16, 8, 4, 2, 1)


def test_weights_all_nonzero():
    # powers of two stay invertible in odd characteristic
    for n in (15, 31, 45, 77, 85):
        for p in (3, 5, 7, 11, 13):
            assert all(w != 0 for w in weights_mod_p(binary_profile(n), p))


def test_solve_pins():
    sol = solve_block_system(binary_profile(15), 3)
    assert sol.ctx.k == 1 and sol.ctx.p == 3
    assert coeffs(sol) == (1, 1, 0, 0)

    sol5 = solve_block_system(binary_profile(15), 5)
    assert coeffs(sol5) == (1, 0, 1, 0)


def test_solutions_verify_exactly():
    for n, p in [(15, 3), (15, 5), (45, 3), (45, 5), (31, 31), (85, 5)]:
        sol = solve_block_system(binary_profile(n), p)
        lin, quad = evaluate_system(sol)
        assert lin.is_zero() and quad.is_zero()
        assert any(not e.is_zero() for e in sol.c)
        assert sol.c[-1].is_zero()


def evaluate_system_oracle(sol):
    """Both weighted sums by per-term FieldElement arithmetic."""
    ctx = sol.ctx
    lin = ctx.zero
    quad = ctx.zero
    for w, ci in zip(sol.weights, sol.c):
        we = ctx.el(w)
        lin = lin + we * ci
        quad = quad + we * ci * ci
    return lin, quad


@st.composite
def block_solutions(draw):
    """A BlockSolution over GF(p) or GF(p^2), p in {3, 5, 13, 53}, with any
    integer weights (zero, negative, p and beyond) and c drawn from a small
    pool of codes, so that values repeat."""
    p = draw(st.sampled_from((3, 5, 13, 53)))
    ctx = field_make(p, draw(st.sampled_from((1, 2))))
    r = draw(st.integers(min_value=1, max_value=9))
    pool = draw(st.lists(st.integers(0, ctx.size - 1), min_size=1, max_size=3))
    c = tuple(ctx.element_at(draw(st.sampled_from(pool))) for _ in range(r))
    weights = tuple(draw(st.lists(st.integers(-3 * p, 3 * p), min_size=r, max_size=r)))
    return BlockSolution(binary_profile(2**r - 1), weights, c, ctx)


def _fixed_solution(p, k, weights, codes):
    ctx = field_make(p, k)
    c = tuple(map(ctx.element_at, codes))
    return BlockSolution(binary_profile(2 ** len(c) - 1), weights, c, ctx)


@given(block_solutions())
@example(_fixed_solution(53, 2, (0, 0, 0), (2808, 2808, 1)))  # zero weights only
@example(_fixed_solution(53, 2, (-1, 52, 53, 106, -54), (2808,) * 5))  # all top element
@example(_fixed_solution(13, 1, (-13, 12, 25, -1), (12, 12, 7, 0)))
@example(_fixed_solution(3, 2, (2, 1, 2, 1), (4, 4, 4, 4)))
def test_evaluate_system_matches_element_oracle(sol):
    # the packed kernel takes multiplicities w mod p: a weight of 0, of p or
    # more, or below 0 must give the sums the element loop gives
    assert evaluate_system(sol) == evaluate_system_oracle(sol)


@pytest.mark.parametrize("n, p", [(199, 199), (53, 53), (3137, 3137)])
def test_solver_decodes_only_the_solution(monkeypatch, n, p):
    # the candidate test runs on packed integers: a solve decodes at most
    # the r coordinates of its solution, not an element per candidate or
    # per field element
    calls = []
    element_at = FieldCtx.element_at

    def counting(self, index):
        calls.append(index)
        return element_at(self, index)

    monkeypatch.setattr(FieldCtx, "element_at", counting)
    prof = binary_profile(n)
    sol = solve_block_system(prof, p)
    assert len(calls) <= prof.r
    assert all(s.is_zero() for s in evaluate_system(sol))


def _next_prime(x):
    while _prime_factors(x) != [x]:
        x += 1
    return x


SMALL_PRIMES = [p for p in range(3, 140) if _prime_factors(p) == [p]]
LARGEST_PRIME = 1048573  # the largest prime below SIZE_LIMIT
# the n <= 2^20 with four binary digits
FOUR_DIGITS = [sum(1 << m for m in ms) for ms in itertools.combinations(range(20), 4)]


@st.composite
def gate_inputs(draw, primes):
    """(n, p) that the gate sends to the solver: p from primes, n <= 2^20 a
    multiple of p with at least four binary digits; half of the draws take
    exactly four, where the solution's field can be GF(p^2)."""
    p = draw(primes)
    if draw(st.booleans()):
        fours = [n for n in FOUR_DIGITS if n % p == 0]
        assume(fours)
        return draw(st.sampled_from(fours)), p
    n = p * draw(st.integers(1, SIZE_LIMIT // p))
    assume(bin(n).count("1") >= 4)
    return n, p


@settings(max_examples=40, deadline=None)
@given(gate_inputs(st.sampled_from(SMALL_PRIMES)))
@example((15, 3))  # A = 0: the first solution is (e, e, 0, 0)
@example((77, 11))  # GF(11^2)
@example((199, 199))  # r = 5, c_4 != 0
def test_solver_matches_the_scan_oracle(case):
    # one quadratic per slice returns the first solution of the full scan,
    # in the same field, over GF(p) and GF(p^2)
    n, p = case
    prof = binary_profile(n)
    c, ctx = scan_solve(weights_mod_p(prof, p), p)
    sol = solve_block_system(prof, p)
    assert (sol.c, sol.ctx) == (c, ctx)


@settings(max_examples=25, deadline=None)
@given(gate_inputs(st.integers(3, LARGEST_PRIME).map(_next_prime)))
@example((1561, 223))
@example((LARGEST_PRIME, LARGEST_PRIME))
def test_solver_answers_every_gate_input(case):
    # past the scan's reach: every input solves, with all six checks of
    # construct passing, exactly unless the criterion names GF(p^2) and
    # GF(p^2) is above the field cap
    n, p = case
    prof = binary_profile(n)
    beyond_cap = solution_field_degree(prof, p) == 2 and p * p > SIZE_LIMIT
    try:
        _, _, checks, _ = _block(n, p, lift=True)
    except UsageError as exc:
        assert beyond_cap
        assert f"field size {p}^2 exceeds the limit" in str(exc)
        return
    assert not beyond_cap
    assert len(checks) == 6 and all(passed for _, passed in checks)


@pytest.mark.parametrize(
    "n,p",
    [(15, 3), (15, 5), (45, 3), (45, 5), (51, 3), (85, 5), (105, 3), (341, 11)]
    # r = 7..9 at p = 3, and r = 7, 8 at p = 5 with c_4 != 0: the full scan
    # over all r - 1 digits agrees with the solver's scan of (c_2, c_3, c_4)
    + [(351, 3), (381, 3), (255, 3), (495, 3), (1407, 3), (1527, 3)]
    + [(635, 5), (1275, 5)],
)
def test_solver_matches_brute_force(n, p):
    prof = binary_profile(n)
    expected = brute_first(p, weights_mod_p(prof, p))
    assert expected is not None
    assert coeffs(solve_block_system(prof, p)) == expected


def test_criterion_names_gf_p2_for_n77_p11():
    # 77 = 64 + 8 + 4 + 1: GF(11) has no solution, so the criterion names
    # the degree 2 extension, which has one (every base element is a square
    # there), and the solver solves over it
    prof = binary_profile(77)
    assert brute_first(11, weights_mod_p(prof, 11)) is None
    sol = solve_block_system(prof, 11)
    assert sol.ctx.p == 11 and sol.ctx.k == 2
    lin, quad = evaluate_system(sol)
    assert lin.is_zero() and quad.is_zero()
    assert sol.c[-1].is_zero()


def test_criterion_names_gf_p2_for_n1100_p5():
    # GF(5) has no solution, so the solver solves over GF(5^2)
    prof = binary_profile(1100)
    assert brute_first(5, weights_mod_p(prof, 5)) is None
    sol = solve_block_system(prof, 5)
    assert sol.ctx.k == 2
    lin, quad = evaluate_system(sol)
    assert lin.is_zero() and quad.is_zero()


# every r = 4 case with p | n < 2^14 and an odd prime p <= 103
R4_CASES = [(n, p) for n in FOUR_DIGITS if n < 1 << 14 for p in SMALL_PRIMES if p <= 103 and n % p == 0]


def test_field_criterion_matches_the_base_field_solve():
    # degree 1 exactly when GF(p) has a solution, and every degree 2 case
    # has one over GF(p^2)
    needs_ext = 0
    for n, p in R4_CASES:
        prof = binary_profile(n)
        weights = weights_mod_p(prof, p)
        degree = solution_field_degree(prof, p)
        assert (degree == 1) == (_solve_over(field_make(p, 1), weights) is not None), (n, p)
        if degree == 2:
            assert _solve_over(field_make(p, 2), weights) is not None, (n, p)
            needs_ext += 1
    assert (len(R4_CASES), needs_ext) == (1426, 241)


@pytest.mark.parametrize(
    "n, p, degree",
    [
        (15, 3, 1),  # exponents 3 + 2 + 1 + 0, an even sum
        (23, 23, 1),  # exponents 4 + 2 + 1 + 0, an odd sum, but 23 = 7 mod 8
        (77, 11, 2),  # an odd sum and 11 = 3 mod 8
        (53, 53, 2),  # an odd sum and 53 = 5 mod 8
        (199, 199, 1),  # r = 5
        (93, 3, 1),  # r = 5 with an odd sum and 3 = 3 mod 8
    ],
)
def test_field_criterion_pins(n, p, degree):
    prof = binary_profile(n)
    assert solution_field_degree(prof, p) == degree
    assert solve_block_system(prof, p).ctx.k == degree


def brute_first_gf_p2(p, weights):
    """Independent full scan over GF(p^2) with FieldElement arithmetic:
    (c_1, ..., c_{r-1}) in canonical index order, c_1 fastest, c_r = 0."""
    ctx = field_make(p, 2)
    elements = list(ctx.elements())
    w = [ctx.el(x) for x in weights]
    w1c = [w[0] * e for e in elements]
    for rev in itertools.product(elements, repeat=len(weights) - 2):
        tail = rev[::-1]  # (c_2, ..., c_{r-1}), c_2 fastest
        neg_lin = -sum((wi * ci for wi, ci in zip(w[1:], tail)), ctx.zero)
        quad_tail = sum((wi * ci * ci for wi, ci in zip(w[1:], tail)), ctx.zero)
        for c1, wc1 in zip(elements, w1c):
            if wc1 == neg_lin and (wc1 * c1 + quad_tail).is_zero():
                c = (c1,) + tail + (ctx.zero,)
                if any(not e.is_zero() for e in c):
                    return c
    return None


def test_extension_solutions_match_oracle():
    # which GF(p^2) solution is returned is pinned, not only its validity:
    # every (n, p) with n <= 4096 and p <= 13 whose solution needs GF(p^2)
    checked = 0
    for n in range(1, 4097):
        prof = binary_profile(n)
        if prof.r != 4:
            continue
        for p in (3, 5, 7, 11, 13):
            if n % p:
                continue
            sol = solve_block_system(prof, p)
            if sol.ctx.k == 2:
                assert sol.c == brute_first_gf_p2(p, weights_mod_p(prof, p)), (n, p)
                checked += 1
    assert checked == 46


def test_invalid_profiles():
    with pytest.raises(InvalidProfileError):
        solve_block_system(binary_profile(12), 3)  # 12 = 8 + 4, two terms
    with pytest.raises(InvalidProfileError):
        solve_block_system(binary_profile(21), 3)  # three terms
    with pytest.raises(InvalidProfileError):
        solve_block_system(binary_profile(15), 7)  # 7 does not divide 15
    # the gate checks p first: 12 has two terms, but 4 is not prime, and
    # the refusal of p is not raised while handling a profile error
    with pytest.raises(NotPrimeError) as info:
        solve_block_system(binary_profile(12), 4)
    assert info.value.__context__ is None
    with pytest.raises(EvenCharacteristicError):
        solve_block_system(binary_profile(10), 2)
    # 10 = 8 + 2 fails both reasons; the r < 4 one is reported, over GF(3)
    with pytest.raises(InvalidProfileError, match=r"r = 2 < 4") as info:
        solve_block_system(binary_profile(10), 3)
    assert info.value.ctx is field_make(3, 1)
    for p in (2, 4, 9, 1, 0, -3, 2**20 + 7):
        with pytest.raises(UsageError) as gate:
            check_hypotheses(15, p)
        with pytest.raises(UsageError) as solve:
            solve_block_system(binary_profile(15), p)
        assert type(solve.value) is type(gate.value), p


def test_lift_pin():
    prof = binary_profile(15)
    sol = solve_block_system(prof, 3)
    lifted = expanded(lift_block_solution(sol))
    assert [e.coeffs[0] for e in lifted.coords] == [1] * 12 + [0] * 3
    assert on_quadric(lifted)
    assert not in_small_diagonal(lifted)


def test_lift_block_structure():
    prof = binary_profile(45)
    sol = solve_block_system(prof, 5)
    lifted = expanded(lift_block_solution(sol))
    assert lifted.n == 45
    pos = 0
    for size, c in zip(prof.block_sizes(), sol.c):
        assert all(x == c for x in lifted.coords[pos : pos + size])
        pos += size
    assert on_quadric(lifted)


def test_the_library_lifts_past_the_cli_cap():
    # 3932160 = 2^21 + 2^20 + 2^19 + 2^18: four runs, held in O(r) memory
    lift = lift_block_solution(solve_block_system(binary_profile(3932160), 3))
    assert len(lift.codes) == len(lift.counts) == 4
    assert sum(lift.counts) == 3932160 > SIZE_LIMIT
    assert all(s.is_zero() for s in power_sums(lift))


def test_block_solution_refuses_a_mis_shaped_solution():
    # one weight and one c_i per block, each c_i an element of the
    # solution's field; otherwise the sums and the lift read some other
    # system without notice
    prof, f7 = binary_profile(15), field_make(7)
    c = (f7.el(1), f7.el(2), f7.el(3))
    with pytest.raises(ValueError):
        BlockSolution(prof, (1, 2, 4, 1), c, f7)  # three values, four blocks
    with pytest.raises(ValueError):
        BlockSolution(prof, (1, 2, 4), c + (f7.zero,), f7)  # three weights
    with pytest.raises(ValueError):
        BlockSolution(prof, (1, 2, 4, 1), c + (field_make(11).zero,), f7)
    with pytest.raises(ValueError):
        BlockSolution(prof, (1, 2, 4, 1), c + (field_make(7, 2).zero,), f7)
    sol = BlockSolution(prof, (1, 2, 4, 1), c + (f7.zero,), f7)
    assert expanded(lift_block_solution(sol)).n == 15


def test_block_lift_refuses_what_a_point_refuses():
    # AmbientPoint's guards on r runs: int codes and counts, each code below
    # the field size, one count of at least 1 per code, 2 coordinates at least
    f7 = field_make(7)
    assert BlockLift(f7, [1, 6], [1, 1]) == BlockLift(f7, (1, 6), (1, 1))  # kept as tuples
    with pytest.raises(TypeError):
        BlockLift(f7, (1.0, 0), (2, 1))
    with pytest.raises(TypeError):
        BlockLift(f7, (1, 0), ("2", 1))
    refused = [
        ((7, 0), (2, 1)),  # code ctx.size
        ((1, -1), (2, 1)),
        ((1, 0), (2, 0)),  # count 0
        ((1, 0), (2,)),  # codes and counts of different lengths
        ((1, 0), (3, 1, 1)),
        ((1,), (1,)),  # one coordinate
        ((), ()),
    ]
    for codes, counts in refused:
        with pytest.raises(ValueError):
            BlockLift(f7, codes, counts)


def test_written_block_payload():
    doc = written(_block(15, 3, lift=False)[1])
    assert doc == {
        "n": 15,
        "exponents": [3, 2, 1, 0],
        "weights": [2, 1, 2, 1],
        "c": [[1], [1], [0], [0]],
        "field": {"p": 3, "k": 1, "modulus": [0, 1]},
    }
