"""Triple ratio map: pins, symmetries, Jacobian, rank certificates."""

import pytest

import quadcert.compression
from quadcert.cli import main
from quadcert.errors import (
    JacobianIdentityError,
    NotOnQuadricError,
    OnDiscriminantError,
    SizeMismatchError,
)
from quadcert.gf import field_make
from quadcert.quadric import (
    AmbientPoint,
    on_quadric,
    power_sums,
    sample_quadric_point,
)
from quadcert.actions import (
    AffineMap,
    Permutation,
    affine_act,
    permute,
    random_affine,
    random_permutation,
)
from quadcert.compression import (
    affine_invariance_check,
    compress,
    compression_jacobian,
    faithfulness_witness,
    gram_rank,
    ordered_triples,
    permute_image,
    rank_certificate,
)
from quadcert.rng import SplitMix64
from tests._dualnum import lift_const, lift_var
from _gaussref import matvec
from _laneref import kernel_basis, rank, restricted_rank
from _jacobianref import (
    first_failing_row,
    generator_matrix,
    generator_rows,
    gradient_matrix,
    triple_positions,
    triples_by_loops,
)
from _points import point
from test_kernels import decoded


F11 = field_make(11)
BASE = AmbientPoint(F11, (9, 5, 1, 3, 4))


def test_triple_enumeration():
    trip = ordered_triples(5)
    assert len(trip) == 5 * 4 * 3
    assert trip[0] == (1, 2, 3)
    assert list(trip) == sorted(trip)
    assert all(len({r, s, t}) == 3 for r, s, t in trip)
    pos = triple_positions(5)
    assert all(trip[pos[t]] == t for t in trip)
    for n in range(3, 13):
        assert ordered_triples(n) == triples_by_loops(n)


def test_component_pins():
    img = compress(BASE)
    assert img[(1, 2, 3)] == F11.el(6)
    assert img[(2, 3, 4)] == F11.el(2)
    assert img[(3, 4, 5)] == F11.el(8)
    assert img[(1, 4, 3)] == F11.el(9)


def test_image_keys_follow_the_enumeration():
    assert tuple(compress(BASE)) == ordered_triples(5)


def test_reciprocal_identity():
    img = compress(BASE)
    for r, s, t in ordered_triples(5):
        assert img[(r, s, t)] * img[(r, t, s)] == F11.one


def test_compress_rejects_collisions():
    with pytest.raises(OnDiscriminantError):
        compress(AmbientPoint(F11, (9, 5, 1, 3, 3)))


def test_permutation_equivariance():
    rng = SplitMix64(17)
    for _ in range(40):
        s = random_permutation(5, rng)
        assert permute_image(s, compress(BASE)) == compress(permute(s, BASE))


def test_permute_image_refuses_another_size():
    img = compress(BASE)
    for images in ((2, 1, 3, 4), (2, 1, 3, 4, 5, 6)):
        with pytest.raises(SizeMismatchError):
            permute_image(Permutation(images), img)


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
            AmbientPoint(f31, (1, 2, 3, 4))
        )
    with pytest.raises(OnDiscriminantError):
        faithfulness_witness(
            AmbientPoint(F11, (9, 5, 1, 3, 3))
        )


def test_jacobian_row_pin():
    jac = compression_jacobian(BASE)
    assert len(jac) == 60 and {len(row) for row in jac} == {5}
    row = jac[triple_positions(5)[(1, 2, 3)]]
    assert [e.coeffs[0] for e in row] == [9, 4, 9, 0, 0]


def test_jacobian_kernel_directions():
    # both the point itself and the all-ones vector are annihilated:
    # each component is invariant under x -> alpha x + beta
    jac = compression_jacobian(BASE)
    zero = tuple(F11.zero for _ in jac)
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
        row = jac[pos[triple]]
        for j in range(5):
            assert row[j] == dual_jacobian_entry(BASE, triple, j)


def test_jacobian_dual_agreement_other_field():
    f27 = field_make(3, 3)
    a = sample_quadric_point(6, f27, seed=4)
    jac = compression_jacobian(a)
    pos = triple_positions(6)
    for triple in ordered_triples(6)[::7]:
        row = jac[pos[triple]]
        for j in range(6):
            assert row[j] == dual_jacobian_entry(a, triple, j)


def test_rank_certificate_control_pin():
    # 11 does not divide 5, so the bound relaxes to n - 3
    cert = rank_certificate(BASE)
    assert (BASE.n, BASE.ctx.p) == (5, 11)
    assert cert.bound == BASE.n - 3
    assert cert.tangent_dim == 3
    assert cert.ambient_rank == 3
    assert cert.restricted_rank == 2
    assert cert.bound == 2
    assert cert.satisfied


def test_rank_certificate_divisible_case():
    f81 = field_make(3, 4)
    a = sample_quadric_point(15, f81, seed=7)
    cert = rank_certificate(a)
    assert a.n % a.ctx.p == 0 and cert.bound == a.n - 4
    assert cert.tangent_dim == 13
    assert cert.bound == 11
    assert cert.restricted_rank <= 11
    assert cert.satisfied


def test_rank_certificate_matches_direct_restriction():
    cert = rank_certificate(BASE)
    jac = compression_jacobian(BASE)
    assert cert.restricted_rank == restricted_rank(jac, kernel_basis(gradient_matrix(BASE)))


def test_rank_certificate_validation():
    with pytest.raises(OnDiscriminantError):
        rank_certificate(AmbientPoint(F11, (9, 5, 1, 3, 3)))
    with pytest.raises(NotOnQuadricError):
        rank_certificate(AmbientPoint(F11, (1, 2, 3, 4, 5)))


def test_certificate_fields_pin():
    cert = rank_certificate(BASE)
    fields = list(cert.__slots__)
    assert fields == ["ambient_rank", "tangent_dim", "restricted_rank", "bound", "satisfied"]
    assert (cert.ambient_rank, cert.tangent_dim, cert.restricted_rank) == (3, 3, 2)
    assert (cert.bound, cert.satisfied) == (2, True)


# (p, k, n): prime fields and GF(3^4), GF(5^4) (below and above 256
# elements), all eliminated on lane vectors, each with a divisible
# (p | n) and a control case
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


def _columns(d1, d2, di):
    """The three entry lists of the generator rows, from
    `compression._generator_rows`: the lanes of D1 and D2, and the element
    Di once for each lane."""
    d1, d2 = decoded(d1), decoded(d2)
    return d1, d2, [di] * len(d1)


def _generator_rows(a):
    """The generator rows at a as (d1, d2, di) triples."""
    x1, x2 = a.coords[:2]
    return list(zip(*_columns(*quadcert.compression._generator_rows(x1, x2, a.ctx.lanes(a.codes[2:])))))


def _corrupt_lanes(rows, wrongs):
    """The generator rows (D1, D2, Di) as three lane vectors, with
    wrongs[lane] applied to the entries of each lane it names."""
    columns = _columns(*rows)
    ctx = columns[0][0].ctx
    for lane, wrong in wrongs.items():
        for column, entry in zip(columns, wrong(*(c[lane] for c in columns), ctx.one)):
            column[lane] = entry
    return tuple(ctx.lanes(map(ctx.element_index, c)) for c in columns)


@pytest.mark.parametrize("p, k, n", ORACLE_CASES)
def test_generator_rows_against_full_jacobian(p, k, n):
    ctx = field_make(p, k)
    for seed in range(2):
        a = sample_quadric_point(n, ctx, seed=1000 * n + seed)
        full = compression_jacobian(a)
        gen = generator_matrix(a)
        pos = triple_positions(n)
        assert len(gen) == n - 2 and {len(row) for row in gen} == {n}
        rows = _generator_rows(a)
        assert rows == generator_rows(a)
        for i, (d1, d2, di) in enumerate(rows, start=3):
            row = full[pos[(1, i, 2)]]
            assert (row[0], row[1], row[i - 1]) == (d1, d2, di)
            assert gen[i - 3] == row
        tangent = kernel_basis(gradient_matrix(a))
        ambient, restricted = rank(full), restricted_rank(full, tangent)
        assert rank(gen) == ambient
        assert restricted_rank(gen, tangent) == restricted
        cert = rank_certificate(a)
        assert (cert.ambient_rank, cert.restricted_rank) == (ambient, restricted)
        assert cert.bound == (n - 4 if n % p == 0 else n - 3)


def test_generator_jacobian_pin():
    rows = _generator_rows(BASE)
    assert len(rows) == 3
    # row of (1, 3, 2) at x = (9, 5, 1, 3, 4) over GF(11), 1/(x_1 - x_2) = 3:
    # (x_3 - x_2) 3^2 = 8, (x_1 - x_3) 3^2 = 6, -3 = 8
    assert [e.coeffs[0] for e in rows[0]] == [8, 6, 8]


# (p, k, n) for the elimination oracle: GF(7), GF(31), GF(3^4), GF(5^4) and
# GF(3^6), each with a divisible (p | n) and a control case. Over GF(31) the
# only points with n = 31 distinct coordinates are the orderings of the
# whole field, which the sampler almost never draws, so that case shuffles
# the field instead of sampling.
STRUCTURED_CASES = (
    (7, 1, 7),
    (7, 1, 6),
    (31, 1, 31),
    (31, 1, 15),
    (3, 4, 9),
    (3, 4, 15),
    (3, 4, 10),
    (5, 4, 10),
    (5, 4, 7),
    (3, 6, 12),
    (3, 6, 11),
)


def _quadric_points(p, k, n, count):
    ctx = field_make(p, k)
    if n == ctx.size:
        rng = SplitMix64(n)
        for _ in range(count):
            coords = list(ctx.elements())
            for i in range(n - 1, 0, -1):  # Fisher-Yates
                j = rng.below(i + 1)
                coords[i], coords[j] = coords[j], coords[i]
            yield point(coords)
    else:
        for seed in range(count):
            yield sample_quadric_point(n, ctx, seed=7000 + 100 * n + seed)


@pytest.mark.parametrize("p, k, n", STRUCTURED_CASES)
def test_structured_certificate_matches_elimination(p, k, n):
    # the O(n) certificate and the elimination oracle agree on every rank
    for a in _quadric_points(p, k, n, 3):
        assert on_quadric(a)
        jac, tangent = generator_matrix(a), kernel_basis(gradient_matrix(a))
        cert = rank_certificate(a)
        assert cert.ambient_rank == rank(jac)
        assert cert.tangent_dim == len(tangent)
        assert cert.restricted_rank == restricted_rank(jac, tangent)
        # on the quadric G = diag(n, 0): never rank 2, nor rank 1 through s_1, s_2
        assert gram_rank(n, *power_sums(a)) == (0 if n % p == 0 else 1)


def _distinct_point(ctx, n, rng):
    indices = []
    while len(indices) < n:
        j = rng.below(ctx.size)
        if j not in indices:
            indices.append(j)
    return AmbientPoint(ctx, indices)


def test_gram_lemma_off_the_quadric():
    # for any point with distinct coordinates the generator Jacobian on
    # ker [1; 2x] has rank n - 4 + rank G, G = [[n, s_1], [s_1, s_2]]; off
    # the quadric G reaches rank 2, and rank 1 with s_1 and s_2 nonzero
    rng = SplitMix64(11)
    seen = set()
    for p, k, n in STRUCTURED_CASES:
        ctx = field_make(p, k)
        for _ in range(40):
            a = _distinct_point(ctx, min(n, ctx.size - 1), rng)
            s1, s2 = power_sums(a)
            g = gram_rank(a.n, s1, s2)
            oracle = restricted_rank(generator_matrix(a), kernel_basis(gradient_matrix(a)))
            assert a.n - 4 + g == oracle
            seen.add((g, s1.is_zero(), s2.is_zero()))
    assert {(2, False, False), (1, False, False)} <= seen


def test_gram_rank_pins():
    f7 = field_make(7)
    assert gram_rank(5, f7.zero, f7.zero) == 1
    assert gram_rank(7, f7.zero, f7.zero) == 0
    assert gram_rank(7, f7.zero, f7.el(3)) == 1
    assert gram_rank(7, f7.el(2), f7.el(3)) == 2
    assert gram_rank(5, f7.el(1), f7.el(3)) == 1  # 5 * 3 = 1 * 1 mod 7
    assert gram_rank(5, f7.el(1), f7.el(2)) == 2


WRONG_ROWS = {
    # one wrong entry breaks J.1 = 0
    "d1": lambda d1, d2, di, one: (d1 + one, d2, di),
    "d2": lambda d1, d2, di, one: (d1, d2 + one, di),
    "di": lambda d1, d2, di, one: (d1, d2, di + one),
    # swapped entries keep J.1 = 0 and break J.x = 0 unless x_i is the
    # midpoint of x_1 and x_2
    "swap": lambda d1, d2, di, one: (d2, d1, di),
}


@pytest.mark.parametrize("wrong", WRONG_ROWS.values(), ids=WRONG_ROWS.keys())
def test_wrong_generator_row_raises(monkeypatch, capsys, wrong):
    # a wrong row makes certify raise instead of printing a certificate
    rows = quadcert.compression._generator_rows

    def wrong_rows(x1, x2, xs):
        return _corrupt_lanes(rows(x1, x2, xs), {4: wrong})

    monkeypatch.setattr(quadcert.compression, "_generator_rows", wrong_rows)
    with pytest.raises(JacobianIdentityError, match="generator row 7"):
        main(["certify", "15", "3", "--field-degree", "4", "--samples", "1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("wrong", WRONG_ROWS.values(), ids=WRONG_ROWS.keys())
@pytest.mark.parametrize("p, k", [(31, 1), (3, 4)])
def test_lane_checks_name_the_row_the_element_loop_names(monkeypatch, p, k, wrong):
    # each lane of an n = 15 point corrupted in turn: the certificate raises
    # for exactly the corrupted rows the element loop rejects, and names the
    # row it names
    a = sample_quadric_point(15, field_make(p, k), seed=3)
    rows = quadcert.compression._generator_rows
    for lane in range(a.n - 2):
        elements = generator_rows(a)
        elements[lane] = wrong(*elements[lane], a.ctx.one)
        expected = first_failing_row(a, elements)
        monkeypatch.setattr(
            quadcert.compression,
            "_generator_rows",
            lambda x1, x2, xs: _corrupt_lanes(rows(x1, x2, xs), {lane: wrong}),
        )
        if expected is None:  # a swap at the midpoint of x_1 and x_2
            rank_certificate(a)
        else:
            assert expected == lane + 3
            with pytest.raises(JacobianIdentityError, match=f"generator row {expected} "):
                rank_certificate(a)


def test_the_first_failing_row_of_either_check_is_named(monkeypatch):
    # a swap in lane 4 breaks only J.x = 0, a wrong d1 in lane 6 breaks
    # J.1 = 0 as well: the certificate names row 7, the first of the two
    a = sample_quadric_point(15, field_make(3, 4), seed=3)
    rows = quadcert.compression._generator_rows
    elements = generator_rows(a)
    elements[4] = WRONG_ROWS["swap"](*elements[4], a.ctx.one)
    elements[6] = WRONG_ROWS["d1"](*elements[6], a.ctx.one)
    assert first_failing_row(a, elements) == 7

    def wrong_rows(x1, x2, xs):
        return _corrupt_lanes(rows(x1, x2, xs), {4: WRONG_ROWS["swap"], 6: WRONG_ROWS["d1"]})

    monkeypatch.setattr(quadcert.compression, "_generator_rows", wrong_rows)
    with pytest.raises(JacobianIdentityError, match="generator row 7 "):
        rank_certificate(a)


# (coordinates over GF(7), ambient, tangent and restricted rank, bound): the
# two smallest certificates, with one and two generator rows
SMALL_CERTIFICATES = (
    ((1, 2, 4), (1, 1, 0), 0),
    ((0, 1, 2, 4), (2, 2, 1), 1),
)


@pytest.mark.parametrize("coords, ranks, bound", SMALL_CERTIFICATES, ids=["n3", "n4"])
def test_certificates_with_one_and_two_lanes(coords, ranks, bound):
    a = AmbientPoint(field_make(7), coords)
    assert on_quadric(a)
    cert = rank_certificate(a)
    assert (cert.ambient_rank, cert.tangent_dim, cert.restricted_rank) == ranks
    assert (cert.bound, cert.satisfied) == (bound, True)
    jac, tangent = generator_matrix(a), kernel_basis(gradient_matrix(a))
    assert cert.ambient_rank == rank(jac)
    assert cert.tangent_dim == len(tangent)
    assert cert.restricted_rank == restricted_rank(jac, tangent)


def test_structured_certificate_validation_over_an_extension_field():
    f81 = field_make(3, 4)
    a = sample_quadric_point(15, f81, seed=7)
    coords = list(a.coords)
    coords[3] = coords[2]
    with pytest.raises(OnDiscriminantError):
        rank_certificate(point(coords))
    coords = list(a.coords)
    coords[3] = coords[3] + f81.one
    off = point(coords)
    assert not on_quadric(off) and len(set(off.coords)) == off.n
    with pytest.raises(NotOnQuadricError):
        rank_certificate(off)
