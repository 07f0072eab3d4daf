"""The affine stabilizer of each certify sample, by the brute-force oracle
`_stabref`.

Each sample's coordinate set S is read from the certify document, with the
document's own field. Its order is the number of maps x -> alpha x + beta
that carry S onto itself; order 1 means the affine orbit of S is free. Every
sample of the five certify golden cases, and of the acceptance gate's
divisible run (`main`) and GF(13^2) control (`control15`), has order 1. The
gate's GF(11) control (`control5`) samples the n = 5 locus, whose two sets
are the cosets of the fifth roots of unity (`tests/test_locus.py`), so each
of its samples is fixed by the five maps x -> zeta x. A change of sampler
that changes these orders re-pins them here and says so.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from _stabref import ring, stabilizer_order
from test_acceptance import _certificate_runs

GOLDEN = Path(__file__).parent / "golden"
CERTIFY_CASES = (
    "certify_15_gf81",
    "certify_30_gf81",
    "certify_15_gf31_control",
    "certify_10_gf625",
    "certify_7_gf625_control",
)


def _orders(doc) -> list[int]:
    field = ring(doc["field"])
    return [stabilizer_order(field, s["point"]) for s in doc["payload"]["samples"]]


@pytest.mark.parametrize("stem", CERTIFY_CASES)
def test_every_golden_certify_sample_has_a_free_orbit(stem):
    doc = json.loads((GOLDEN / f"{stem}.json").read_text())
    assert doc["command"] == "certify"
    assert _orders(doc) == [1] * len(doc["payload"]["samples"]) != []


@pytest.mark.parametrize("key, order", [("main", 1), ("control15", 1), ("control5", 5)])
def test_acceptance_certify_samples_have_the_pinned_order(key, order):
    code, doc, _ = _certificate_runs()[key]
    assert code == 0
    assert _orders(doc) == [order] * 20


def test_the_whole_field_is_fixed_by_every_map():
    control = json.loads((GOLDEN / "certify_15_gf31_control.json").read_text())
    f31 = ring(control["field"])
    assert stabilizer_order(f31, [(c,) for c in range(31)]) == 30 * 31
    assert stabilizer_order(f31, [(0,), (1,)]) == 2  # the identity and x -> 1 - x
    assert stabilizer_order(f31, [(0,), (1,), (3,)]) == 1
    f9 = ring({"p": 3, "k": 2, "modulus": [1, 0, 1]})  # x^2 + 1
    assert stabilizer_order(f9, product(range(3), repeat=2)) == 8 * 9
