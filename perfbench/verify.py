"""Independent checks of quadcert's outputs.

Nothing here imports quadcert. Field arithmetic, the hypothesis gate and the
rank bounds are restated from the paper, so a defect in the package cannot
vouch for itself. A request *fails* (and counts against the ok ratio) when it
exits 3 or 4, exits 0 with a failed check, or exits 2 although the gate
applies. It is *wrong* (and fails the benchmark) when its exit code differs
from the restated gate's prediction, or its certificate does not check out.
The one tolerated deviation is the solver's known search-budget refusal
(exit 4), which fails without being wrong.
"""

from __future__ import annotations

import json

from workloads import Request, gate_applies

BUDGET_MESSAGE = "exceeds the supported budget"
ENVELOPE = {"schema_version", "command", "inputs", "field", "payload", "checks"}


class Field:
    """GF(p^k) from a certificate's field object; elements are coefficient
    lists, low degree first."""

    def __init__(self, spec: dict):
        self.p, self.k, self.modulus = spec["p"], spec["k"], spec["modulus"]
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus {self.modulus} is not monic of degree {self.k}")

    def element(self, coeffs) -> list[int]:
        if len(coeffs) != self.k or not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"{coeffs} is not an element of GF({self.p}^{self.k})")
        return list(coeffs)

    def add(self, a, b):
        return [(x + y) % self.p for x, y in zip(a, b)]

    def scale(self, c: int, a):
        return [(c * x) % self.p for x in a]

    def mul(self, a, b):
        k, p, f = self.k, self.p, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # fold x^d back with the monic modulus
            c = prod[d] % self.p
            if c:
                for i in range(k + 1):
                    prod[d - k + i] -= c * f[i]
        return [x % p for x in prod[:k]]

    def zero(self):
        return [0] * self.k

    def power_sums(self, point):
        s1, s2 = self.zero(), self.zero()
        for x in point:
            s1 = self.add(s1, x)
            s2 = self.add(s2, self.mul(x, x))
        return s1, s2


def _on_quadric(field: Field, point, n: int, problems: list[str], what: str, distinct: bool = True) -> None:
    """Points must have n coordinates and lie on the quadric; sampled points
    have pairwise distinct coordinates, block lifts only avoid the constant
    vectors."""
    coords = [tuple(field.element(x)) for x in point]
    if len(coords) != n:
        problems.append(f"{what} has {len(coords)} coordinates, expected {n}")
    if len(set(coords)) < (len(coords) if distinct else 2):
        problems.append(f"{what} has equal coordinates")
    s1, s2 = field.power_sums(coords)
    if any(s1) or any(s2):
        problems.append(f"{what} is not on the quadric")


def _block_solution(field: Field, sol: dict, n: int, p: int, problems: list[str]) -> None:
    exponents = [m for m in range(n.bit_length() - 1, -1, -1) if n >> m & 1]
    if sol["exponents"] != exponents or sol["weights"] != [pow(2, m, p) for m in exponents]:
        problems.append("block system weights do not match the binary profile")
    c = [field.element(x) for x in sol["c"]]
    lin, quad = field.zero(), field.zero()
    for w, ci in zip(sol["weights"], c):
        lin = field.add(lin, field.scale(w, ci))
        quad = field.add(quad, field.scale(w, field.mul(ci, ci)))
    if any(lin) or any(quad) or not any(map(any, c)) or any(c[-1]):
        problems.append("block solution does not solve the weighted system")


def _check_certify(doc: dict, n: int, p: int, problems: list[str]) -> None:
    field = Field(doc["field"])
    payload = doc["payload"]
    if payload["control"] == gate_applies(n, p):
        problems.append("control flag disagrees with the gate")
    bound = n - 4 if n % p == 0 else n - 3
    for s in payload["samples"]:
        _on_quadric(field, s["point"], n, problems, f"sample {s['index']}")
        if s["tangent_dim"] != n - 2 or s["bound"] != bound:
            problems.append(f"sample {s['index']}: tangent_dim or bound is wrong")
        if not s["restricted_rank"] <= min(bound, s["ambient_rank"]) or s["ambient_rank"] > n - 2:
            problems.append(f"sample {s['index']}: ranks {s['restricted_rank']}/{s['ambient_rank']} break the bound {bound}")
        if not (s["satisfied"] and s["faithfulness_witness"]):
            problems.append(f"sample {s['index']} is not certified")
    if payload["block_solution"] is not None:
        block = payload["block_solution"]
        _block_solution(Field(block["field"]), block, n, p, problems)
        _on_quadric(Field(block["field"]), block["lift"], n, problems, "block lift", distinct=False)
    if not payload["verdict"]:
        problems.append("certify verdict is false")


def _check_borel(doc: dict, n: int, problems: list[str]) -> None:
    field = Field(doc["field"])
    n_el = [n % field.p] + [0] * (field.k - 1)
    for r in doc["payload"]["reports"]:
        _on_quadric(field, r["point"], n, problems, f"borel point {r['index']}")
        beta = field.element(r["map"]["beta"])
        nb = field.mul(n_el, beta)
        if r["report"]["expected_s1"] != nb or r["report"]["expected_p2"] != field.mul(nb, beta):
            problems.append(f"borel report {r['index']}: predicted sums are wrong")
        alpha = field.element(r["map"]["alpha"])
        moved = [field.add(field.mul(alpha, x), beta) for x in r["point"]]
        s1, s2 = field.power_sums(moved)
        if [s1, s2] != [r["report"]["s1_after"], r["report"]["p2_after"]]:
            problems.append(f"borel report {r['index']}: moved sums are wrong")


def _check_content(req: Request, doc: dict, code: int, problems: list[str]) -> None:
    command = req.argv[0]
    n = int(req.argv[1])
    if code == 2:
        if command in ("solve", "construct") and doc["payload"].get("error") != "InvalidProfile":
            problems.append("exit 2 without an InvalidProfile payload")
        if command == "sample" and doc["payload"].get("error") != "NoPointFound":
            problems.append("exit 2 without a NoPointFound payload")
        if command == "check" and doc["payload"]["applies"]:
            problems.append("exit 2 but the payload says the gate applies")
        return
    if command == "check":
        if doc["payload"]["applies"] != gate_applies(n, int(req.argv[2])):
            problems.append("check payload disagrees with the gate")
    elif command in ("solve", "construct"):
        p = int(req.argv[2])
        _block_solution(Field(doc["field"]), doc["payload"], n, p, problems)
        if command == "construct":
            _on_quadric(Field(doc["field"]), doc["payload"]["lift"], n, problems, "lift", distinct=False)
    elif command == "sample":
        _on_quadric(Field(doc["field"]), doc["payload"]["point"], n, problems, "sample point")
    elif command == "borel-check":
        _check_borel(doc, n, problems)
    elif command == "certify":
        _check_certify(doc, n, int(req.argv[2]), problems)


def judge(req: Request, code, out: str, err: str) -> tuple[bool, list[str]]:
    """(failed, problems) for one request's exit code, stdout and stderr."""
    if not isinstance(code, int):
        return True, [f"raised {code}"]
    failed = code in (3, 4) or (code == 2 and req.applies)
    if code == 4 and BUDGET_MESSAGE in err and req.applies and not out:
        return True, []  # the solver's known search-budget refusal
    problems = []
    if code != req.expect:
        problems.append(f"exit {code}, the gate predicts {req.expect}: {err.strip()[:200]}")
    if code not in (0, 2, 3):
        return failed, problems
    try:
        doc = json.loads(out)
        if set(doc) != ENVELOPE or doc["command"] != req.argv[0]:
            problems.append("certificate envelope is malformed")
            return failed, problems
        checks = {c["name"]: c["passed"] for c in doc["checks"]}
        # certify reports the gate's decision as a check; on a control run it
        # is false by design, so it is compared with the restated gate.
        if req.argv[0] == "certify" and checks.pop("hypotheses_apply", None) != req.applies:
            problems.append("hypotheses_apply disagrees with the gate")
        if code == 0 and not all(checks.values()):
            failed = True
            problems.append("exit 0 with a failed check")
        if code == req.expect:
            _check_content(req, doc, code, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"certificate does not parse or check: {exc!r}")
    return failed, problems
