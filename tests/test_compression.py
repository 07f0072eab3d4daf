"""Triple ratio map: pins, symmetries, Jacobian, rank certificates."""

import pytest
from hypothesis import given, strategies as st

from quadcert.errors import NotOnQuadricError, OnDiscriminantError
from quadcert.gf import field_make
from quadcert.linalg import matvec, rank, restricted_rank
from quadcert.quadric import AmbientPoint, sample_quadric_point, tangent_basis
from quadcert.actions import AffineMap, affine_act, permute, random_affine, random_permutation
from quadcert.compression import (
    affine_invariance_check,
    compress,
    compression_jacobian,
    faithfulness_witness,
    generator_jacobian,
    ordered_triples,
    permute_image,
    rank_certificate,
    triple_positions,
)
from quadcert.rng import SplitMix64
from tests._dualnum import Dual, lift_const, lift_var


F11 = field_make(11)
BASE = AmbientPoint(tuple(F11.el(v) for v in (9, 5, 1, 3, 4)))


def test_triple_enumeration():
    trip = ordered_triples(5)
    assert len(trip) == 5 * 4 * 3
    assert trip[0] == (1, 2, 3)
    assert list(trip) == sorted(trip)
    assert all(len({r, s, t}) == 3 for r, s, t in trip)
    pos = triple_positions(5)
    assert all(trip[pos[t]] == t for t in trip)


def test_component_pins():
    img = compress(BASE)
    assert img.value(1, 2, 3) == F11.el(6)
    assert img.value(2, 3, 4) == F11.el(2)
    assert img.value(3, 4, 5) == F11.el(8)
    assert img.value(1, 4, 3) == F11.el(9)


def test_reciprocal_identity():
    img = compress(BASE)
    for r, s, t in ordered_triples(5):
        assert img.value(r, s, t) * img.value(r, t, s) == F11.one


def test_compress_rejects_collisions():
    with pytest.raises(OnDiscriminantError):
        compress(AmbientPoint(tuple(F11.el(v) for v in (9, 5, 1, 3, 3))))


def test_permutation_equivariance():
    rng = SplitMix64(17)
    for _ in range(40):
        s = random_permutation(5, rng)
        assert permute_image(s, compress(BASE)) == compress(permute(s, BASE))


def test_affine_invariance():
    rng = SplitMix64(29)
    for _ in range(40):
        g = random_affine(F11, rng)
        assert affine_invariance_check(BASE, g)
    # shifting by a constant and rescaling never changes any ratio
    g = AffineMap(F11.el(7), F11.el(4))
    assert compress(affine_act(g, BASE)) == compress(BASE)


def test_faithfulness_witness_pin():
    # components (1,2,3) and (1,4,3) differ at the base point: 6 vs 9
    assert faithfulness_witness(BASE)


def test_faithfulness_witness_validation():
    with pytest.raises(ValueError):
        f31 = field_make(31)
        faithfulness_witness(
            AmbientPoint(tuple(f31.el(v) for v in (1, 2, 3, 4)))
        )
    with pytest.raises(OnDiscriminantError):
        faithfulness_witness(
            AmbientPoint(tuple(F11.el(v) for v in (9, 5, 1, 3, 3)))
        )


def test_jacobian_row_pin():
    jac = compression_jacobian(BASE)
    assert jac.rows == 60 and jac.cols == 5
    row = jac.row(triple_positions(5)[(1, 2, 3)])
    assert [e.coeffs[0] for e in row] == [9, 4, 9, 0, 0]


def test_jacobian_kernel_directions():
    # both the point itself and the all-ones vector are annihilated:
    # each component is invariant under x -> alpha x + beta
    jac = compression_jacobian(BASE)
    zero = tuple(F11.zero for _ in range(jac.rows))
    ones = tuple(F11.one for _ in range(5))
    assert matvec(jac, BASE.coords) == zero
    assert matvec(jac, ones) == zero


def dual_jacobian_entry(a, triple, j):
    """Derivative of one triple ratio in slot j, by dual number evaluation."""
    ctx = a.ctx
    r, s, t = triple
    coords = [
        lift_var(x, ctx) if idx == j else lift_const(x, ctx)
        for idx, x in enumerate(a.coords)
    ]
    val = (coords[r - 1] - coords[s - 1]) / (coords[r - 1] - coords[t - 1])
    return val.b


def test_jacobian_matches_dual_numbers():
    jac = compression_jacobian(BASE)
    pos = triple_positions(5)
    for triple in ordered_triples(5):
        row = jac.row(pos[triple])
        for j in range(5):
            assert row[j] == dual_jacobian_entry(BASE, triple, j)


def test_jacobian_dual_agreement_other_field():
    f27 = field_make(3, 3)
    a = sample_quadric_point(6, f27, seed=4)
    jac = compression_jacobian(a)
    pos = triple_positions(6)
    for triple in ordered_triples(6)[::7]:
        row = jac.row(pos[triple])
        for j in range(6):
            assert row[j] == dual_jacobian_entry(a, triple, j)


def test_rank_certificate_control_pin():
    # 11 does not divide 5, so the bound relaxes to n - 3
    cert = rank_certificate(BASE)
    assert cert.n == 5 and cert.p == 11
    assert not cert.characteristic_divides_n
    assert cert.tangent_dim == 3
    assert cert.ambient_rank == 3
    assert cert.restricted_rank == 2
    assert cert.bound == 2
    assert cert.satisfied


def test_rank_certificate_divisible_case():
    f81 = field_make(3, 4)
    a = sample_quadric_point(15, f81, seed=7)
    cert = rank_certificate(a)
    assert cert.characteristic_divides_n
    assert cert.tangent_dim == 13
    assert cert.bound == 11
    assert cert.restricted_rank <= 11
    assert cert.satisfied


def test_rank_certificate_matches_direct_restriction():
    from quadcert.linalg import restricted_rank

    cert = rank_certificate(BASE)
    jac = compression_jacobian(BASE)
    assert cert.restricted_rank == restricted_rank(jac, tangent_basis(BASE))


def test_rank_certificate_validation():
    with pytest.raises(OnDiscriminantError):
        rank_certificate(AmbientPoint(tuple(F11.el(v) for v in (9, 5, 1, 3, 3))))
    with pytest.raises(NotOnQuadricError):
        rank_certificate(AmbientPoint(tuple(F11.el(v) for v in (1, 2, 3, 4, 5))))


def test_certificate_to_json():
    doc = rank_certificate(BASE).to_json()
    assert doc == {
        "n": 5,
        "p": 11,
        "characteristic_divides_n": False,
        "ambient_rank": 3,
        "tangent_dim": 3,
        "restricted_rank": 2,
        "bound": 2,
        "satisfied": True,
    }


# (p, k, n): prime fields (residue kernel) and GF(3^4), GF(5^4) (log kernel,
# below and above 256 elements), each with a divisible (p | n) and a control
# case
ORACLE_CASES = (
    (7, 1, 7),
    (11, 1, 11),
    (31, 1, 15),
    (3, 4, 9),
    (3, 4, 15),
    (3, 4, 10),
    (5, 4, 10),
    (5, 4, 7),
)


@pytest.mark.parametrize("p, k, n", ORACLE_CASES)
def test_generator_rows_against_full_jacobian(p, k, n):
    ctx = field_make(p, k)
    for seed in range(2):
        a = sample_quadric_point(n, ctx, seed=1000 * n + seed)
        full = compression_jacobian(a)
        gen = generator_jacobian(a)
        pos = triple_positions(n)
        assert (gen.rows, gen.cols) == (n - 2, n)
        for i in range(3, n + 1):
            assert gen.row(i - 3) == full.row(pos[(1, i, 2)])
        tangent = tangent_basis(a)
        ambient, restricted = rank(full), restricted_rank(full, tangent)
        assert rank(gen) == ambient
        assert restricted_rank(gen, tangent) == restricted
        cert = rank_certificate(a)
        assert (cert.ambient_rank, cert.restricted_rank) == (ambient, restricted)
        assert cert.characteristic_divides_n == (n % p == 0)


def test_generator_jacobian_pin():
    gen = generator_jacobian(BASE)
    assert (gen.rows, gen.cols) == (3, 5)
    # row of (1, 3, 2) at x = (9, 5, 1, 3, 4) over GF(11), 1/(x_1 - x_2) = 3:
    # (x_3 - x_2) 3^2 = 8, (x_1 - x_3) 3^2 = 6, -3 = 8
    assert [e.coeffs[0] for e in gen.row(0)] == [8, 6, 8, 0, 0]
