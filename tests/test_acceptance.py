"""Acceptance gate: eight exact criteria, one reported line each.

Every check is exact (tolerance zero). Each test prints a single
PASS/FAIL line to the real stdout so the gate is readable even under
pytest's capture. Oracles here are deliberately primitive: plain-int
enumeration, no reuse of the library's elimination or completion
shortcuts.
"""

import functools
import itertools
import json
import sys
import time

from quadcert.errors import NoPointFoundError
from quadcert.gf import field_make
from quadcert.profile import binary_profile, check_hypotheses
from quadcert.quadric import sample_quadric_point
from quadcert.actions import (
    affine_act,
    affine_compose,
    invariance_report,
    permute,
    random_affine,
    random_permutation,
    compose,
)
from quadcert.compression import (
    affine_invariance_check,
    compress,
    compression_jacobian,
    ordered_triples,
    permute_image,
)
from quadcert.rng import SplitMix64
from quadcert.trace_system import evaluate_system, solve_block_system, weights_mod_p
from quadcert.cli import main

from _dualnum import lift_const, lift_var
from _gaussref import matvec
from _jacobianref import triple_positions
from _scanref import brute_first


PRIMES = (3, 5, 7, 11, 13)
N_MAX = 4096


def _report(idx, name, start, ok, detail=""):
    dt = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    sys.__stdout__.write(f"ACCEPTANCE {idx} {name}: {status} ({dt:.2f}s){detail}\n")
    sys.__stdout__.flush()


def test_acceptance_1_hypothesis_gate():
    start = time.perf_counter()
    ok = False
    try:
        for n in range(1, N_MAX + 1):
            r = bin(n).count("1")
            for p in PRIMES:
                d = check_hypotheses(n, p)
                assert d.applies == (n % p == 0 and r >= 4), (n, p)
                assert d.required_field_degree == (2 if r == 4 else 1), (n, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"too slow: {elapsed:.2f}s"
        ok = True
    finally:
        _report(1, "hypothesis-gate", start, ok)


def test_acceptance_2_solver_vs_brute_force():
    start = time.perf_counter()
    ok = False
    detail = ""
    try:
        pairs = 0
        base_failures = []
        for n in range(1, N_MAX + 1):
            prof = binary_profile(n)
            if prof.r not in (4, 5, 6):
                continue
            for p in PRIMES:
                if n % p:
                    continue
                pairs += 1
                weights = weights_mod_p(prof, p)
                expected = brute_first(p, weights)
                sol = solve_block_system(prof, p)
                lin, quad = evaluate_system(sol)
                assert lin.is_zero() and quad.is_zero(), (n, p)
                if sol.ctx.k == 1:
                    assert expected is not None, (n, p)
                    got = tuple(e.coeffs[0] for e in sol.c)
                    assert got == expected, (n, p)
                else:
                    # base field scan failed; only allowed at r = 4
                    assert expected is None, (n, p)
                    assert prof.r == 4, (n, p)
                    assert sol.ctx.k == 2, (n, p)
                    base_failures.append((n, p))
        assert pairs > 1000
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"too slow: {elapsed:.2f}s"
        detail = (
            f" [{pairs} cases, {len(base_failures)} base-field failures,"
            f" all r=4, all recovered over p^2]"
        )
        ok = True
    finally:
        _report(2, "solver-vs-brute-force", start, ok, detail)


def test_acceptance_3_concrete_constructions(tmp_path):
    start = time.perf_counter()
    ok = False
    try:
        out = tmp_path / "c15_3.json"
        assert main(["construct", "15", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["c"] == [[1], [1], [0], [0]]
        assert doc["payload"]["lift_sums"] == {"coordinate_sum": [0], "square_sum": [0]}
        assert all(c["passed"] for c in doc["checks"])

        out5 = tmp_path / "c15_5.json"
        assert main(["construct", "15", "5", "--json", str(out5)]) == 0
        doc5 = json.loads(out5.read_text())
        assert doc5["payload"]["lift_sums"] == {"coordinate_sum": [0], "square_sum": [0]}
        assert all(c["passed"] for c in doc5["checks"])

        # the pinned tuple is the first hit of the independent scan
        assert brute_first(3, weights_mod_p(binary_profile(15), 3)) == (1, 1, 0, 0)

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"too slow: {elapsed:.2f}s"
        ok = True
    finally:
        _report(3, "concrete-constructions", start, ok)


def _enumerate_locus_n5(p):
    # plain integers on purpose: independent of the field layer
    sq = [i * i % p for i in range(p)]
    found = set()
    for t in itertools.product(range(p), repeat=5):
        if sum(t) % p:
            continue
        if (sq[t[0]] + sq[t[1]] + sq[t[2]] + sq[t[3]] + sq[t[4]]) % p:
            continue
        if len(set(t)) != 5:
            continue
        found.add(t)
    return found


def test_acceptance_4_sampler_vs_enumeration():
    start = time.perf_counter()
    ok = False
    detail = ""
    try:
        sizes = {}
        for p in (7, 11, 13):
            locus = _enumerate_locus_n5(p)
            sizes[p] = len(locus)
            ctx = field_make(p)
            if not locus:
                for seed in range(3):
                    try:
                        sample_quadric_point(5, ctx, seed=seed)
                        raise AssertionError(f"sampler found a point over GF({p})")
                    except NoPointFoundError:
                        pass
            else:
                for seed in range(5):
                    a = sample_quadric_point(5, ctx, seed=seed)
                    t = tuple(e.coeffs[0] for e in a.coords)
                    assert t in locus, (p, t)
        assert sizes[7] == 0
        assert sizes[11] > 0
        assert (9, 5, 1, 3, 4) in _enumerate_locus_n5(11)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"too slow: {elapsed:.2f}s"
        detail = f" [locus sizes n=5: {sizes}]"
        ok = True
    finally:
        _report(4, "sampler-vs-enumeration", start, ok, detail)


def _identity_trials(n, ctx, master_seed, trials=100):
    master = SplitMix64(master_seed)
    divides = n % ctx.p == 0
    pos = triple_positions(n)
    triples = ordered_triples(n)
    zero_rows = None
    for _ in range(trials):
        a = sample_quadric_point(n, ctx, seed=master.next_u64())
        g = random_affine(ctx, master)
        h = random_affine(ctx, master)
        s = random_permutation(n, master)
        t = random_permutation(n, master)

        # translation and scaling identities for the power sums
        rep = invariance_report(a, g)
        assert rep.identities_hold
        assert rep.stays_on_quadric == (divides or g.beta.is_zero())

        # group law and commutation with coordinate permutations
        assert affine_act(affine_compose(g, h), a) == affine_act(g, affine_act(h, a))
        assert permute(compose(s, t), a) == permute(s, permute(t, a))
        assert permute(s, affine_act(g, a)) == affine_act(g, permute(s, a))

        # ratio map symmetries
        img = compress(a)
        r1, s1, t1 = triples[master.below(len(triples))]
        assert img[(r1, s1, t1)] * img[(r1, t1, s1)] == ctx.one
        assert permute_image(s, img) == compress(permute(s, a))
        assert affine_invariance_check(a, g)

        # both kernel directions of the Jacobian
        jac = compression_jacobian(a)
        if zero_rows is None:
            zero_rows = tuple(ctx.zero for _ in jac)
        ones = tuple(ctx.one for _ in range(n))
        assert matvec(jac, a.coords) == zero_rows
        assert matvec(jac, ones) == zero_rows

        # dual number derivative check on one random component row
        triple = triples[master.below(len(triples))]
        row = jac[pos[triple]]
        rr, ss, tt = triple
        for j in range(n):
            coords = [
                lift_var(x, ctx) if idx == j else lift_const(x, ctx)
                for idx, x in enumerate(a.coords)
            ]
            dual = (coords[rr - 1] - coords[ss - 1]) / (coords[rr - 1] - coords[tt - 1])
            assert row[j] == dual.b


def test_acceptance_5_exact_identities():
    start = time.perf_counter()
    ok = False
    try:
        _identity_trials(6, field_make(3, 3), master_seed=101)  # 3 divides 6
        _identity_trials(5, field_make(11), master_seed=202)  # 11 does not divide 5
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"too slow: {elapsed:.2f}s"
        ok = True
    finally:
        _report(5, "exact-identities", start, ok, " [100 trials x 2 fields]")


@functools.lru_cache(maxsize=1)
def _certificate_runs(tag="runs"):
    import tempfile, pathlib

    docs = {}
    # each document is read back before the directory goes
    with tempfile.TemporaryDirectory(prefix="quadcert-acc-") as tmp:
        for key, argv in {
            "main": ["certify", "15", "3", "--field-degree", "4", "--samples", "20", "--seed", "7"],
            "control5": ["certify", "5", "11", "--samples", "20", "--seed", "11"],
            "control15": ["certify", "15", "13", "--field-degree", "2", "--samples", "20", "--seed", "11"],
        }.items():
            out = pathlib.Path(tmp) / f"{key}.json"
            code = main(argv + ["--json", str(out)])
            docs[key] = (code, json.loads(out.read_text()), out.read_bytes())
    return docs


def _rank_span(doc):
    lo = doc["payload"]["observed_restricted_ranks"]["min"]
    hi = doc["payload"]["observed_restricted_ranks"]["max"]
    return f"{lo}..{hi}"


def test_acceptance_6_rank_certificates():
    start = time.perf_counter()
    ok = False
    detail = ""
    try:
        runs = _certificate_runs()

        code, doc, _ = runs["main"]
        assert code == 0
        samples = doc["payload"]["samples"]
        assert len(samples) == 20
        assert all(s["bound"] == 11 for s in samples)  # n - 4
        assert all(s["restricted_rank"] <= 11 for s in samples)
        assert all(s["satisfied"] for s in samples)
        assert doc["payload"]["verdict"] is True

        for key, n in (("control5", 5), ("control15", 15)):
            code, cdoc, _ = runs[key]
            assert code == 0
            csamples = cdoc["payload"]["samples"]
            assert len(csamples) == 20
            assert all(s["bound"] == n - 3 for s in csamples)
            assert all(s["restricted_rank"] <= n - 3 for s in csamples)
            assert cdoc["payload"]["control"] is True

        detail = (
            f" [ranks 15/3: {_rank_span(doc)} vs bound 11;"
            f" controls 5/11: {_rank_span(runs['control5'][1])} bound 2,"
            f" 15/13: {_rank_span(runs['control15'][1])} bound 12]"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"too slow: {elapsed:.2f}s"
        ok = True
    finally:
        _report(6, "rank-certificates", start, ok, detail)


def test_acceptance_7_faithfulness_witness():
    start = time.perf_counter()
    ok = False
    count = 0
    try:
        for key in ("main", "control5", "control15"):
            _, doc, _ = _certificate_runs()[key]
            for s in doc["payload"]["samples"]:
                assert s["faithfulness_witness"] is True
                count += 1
            names = {c["name"]: c["passed"] for c in doc["checks"]}
            assert names["faithfulness_witness_all"]
        assert count == 60
        ok = True
    finally:
        _report(7, "faithfulness-witness", start, ok, f" [{count} sampled points]")


def test_acceptance_8_reproducibility(tmp_path):
    start = time.perf_counter()
    ok = False
    try:
        argv = ["certify", "15", "3", "--field-degree", "4", "--samples", "20", "--seed", "7"]
        first = _certificate_runs()["main"][2]
        again = tmp_path / "again.json"
        assert main(argv + ["--json", str(again)]) == 0
        assert again.read_bytes() == first
        ok = True
    finally:
        _report(8, "reproducibility", start, ok)
