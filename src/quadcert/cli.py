r"""Command-line front end emitting reproducible JSON certificates.

Every command produces one certificate document:

    {schema_version, command, inputs, field, payload, checks}

Its `inputs` are the command's parsed arguments other than `--json`. A
document contains only integers, strings, booleans, nulls, arrays (lists)
and objects (dicts with string keys). Field elements appear as coefficient
vectors, low degree first.

The bytes are exactly those of `json.dumps(doc, sort_keys=True, indent=2)
+ "\n"`: keys sorted, each item of a non-empty array or object on its own
line indented two spaces per level (empty ones as [] and {}), separators
"," and ": ", strings with ASCII escapes (non-ASCII text as \uXXXX), and a
trailing newline. `canonical_json` writes them in one pass and raises
TypeError on any other value, such as a float (it may be NaN or infinite,
which JSON cannot express), a non-string key (it would be rewritten as a
string without notice) or a tuple. Identical inputs therefore reproduce
identical bytes.

Exit codes: 0 success, 2 hypotheses not met (includes no-point-found and
invalid profiles), 3 a verification check failed, 4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .actions import random_affine, invariance_report
from .compression import faithfulness_witness, rank_certificate
from .errors import (
    EvenCharacteristicError,
    InvalidProfileError,
    NoPointFoundError,
    NotPrimeError,
    UsageError,
)
from .gf import field_make
from .profile import binary_profile, check_hypotheses
from .quadric import (
    in_discriminant,
    in_small_diagonal,
    on_quadric,
    power_sums,
    sample_quadric_point,
)
from .rng import SplitMix64
from .trace_system import evaluate_system, lift_block_solution, solve_block_system

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_VERIFY = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; the certificate contract reserves 2
    for hypothesis failures, so usage errors are remapped to 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for counts: a zero or negative count would make a run
    vacuous (no samples) or report a search that never ran (no tries)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _block(open_: str, parts, close: str, depth: int) -> str:
    """A non-empty array or object at nesting depth `depth`, one part a line."""
    inner = "\n" + "  " * (depth + 1)
    return open_ + inner + ("," + inner).join(parts) + "\n" + "  " * depth + close


class _IntLists(dict):
    """Rendered int lists at one depth, keyed by their contents as a tuple.

    Most certificate bytes are coefficient vectors, and a point or a lift
    repeats few distinct ones, so each is rendered once per document. Keys
    must come from lists already checked to hold exact ints only: True == 1
    and 1.0 == 1, so a list holding those would find an int list's text.
    """

    def __init__(self, depth: int):
        super().__init__({(): "[]"})
        # _block's layout, its strings made once per depth
        inner = "\n" + "  " * (depth + 1)
        self.head, self.sep, self.tail = "[" + inner, "," + inner, "\n" + "  " * depth + "]"

    def __missing__(self, key: tuple) -> str:
        text = self[key] = self.head + self.sep.join(map(int.__repr__, key)) + self.tail
        return text


class _ByDepth(dict):
    """depth -> _IntLists, made on first use; one per document."""

    def __missing__(self, depth: int) -> _IntLists:
        memo = self[depth] = _IntLists(depth)
        return memo


def _encode(value, depth: int, memo: _ByDepth) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        # a vector, a list of vectors (a point or a lift: every entry is
        # type-checked in one pass before any memo lookup), or anything else
        kinds = set(map(type, value))
        if kinds == {int}:
            return memo[depth][tuple(value)]
        if kinds == {list} and set(map(type, chain.from_iterable(value))) <= {int}:
            parts = map(memo[depth + 1].__getitem__, map(tuple, value))
        else:
            parts = [_encode(item, depth + 1, memo) for item in value]
        return _block("[", parts, "]", depth)
    if kind is dict:
        if not value:
            return "{}"
        # a key that is not a string raises TypeError in sorted() or _quote()
        parts = [
            _quote(key) + ": " + _encode(item, depth + 1, memo)
            for key, item in sorted(value.items())
        ]
        return _block("{", parts, "}", depth)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(
        f"certificate values are int, str, bool, None, list or dict, not {kind.__name__}"
    )


def canonical_json(doc: dict) -> str:
    """The certificate text of `doc` (format in the module docstring)."""
    return _encode(doc, 0, _ByDepth()) + "\n"


def _emit(doc: dict, json_path: str | None) -> None:
    text = canonical_json(doc)
    if not json_path:
        sys.stdout.write(text)
        return
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        raise UsageError(f"cannot write {json_path}: {exc.strerror}") from None


def _parse_field_spec(spec: str):
    """'p' or 'p^k' -> FieldCtx; raises UsageError on malformed input."""
    parts = spec.split("^")
    try:
        p, k = map(int, parts) if len(parts) == 2 else (int(spec), 1)
    except ValueError:
        raise UsageError(f"malformed field spec {spec!r}; expected integers p or p^k") from None
    return field_make(p, k)


# --- subcommand implementations ---------------------------------------------
#
# Each returns (field, payload, checks, exit code); `main` wraps them in the
# envelope. `checks` is a list of (name, passed) pairs.


def _exit_code(checks) -> int:
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_VERIFY


def _invalid_profile(p: int, exc: InvalidProfileError):
    payload = {"error": "InvalidProfile", "message": str(exc)}
    return field_make(p, 1), payload, [("solvable_profile", False)], EXIT_HYPOTHESIS


def _no_point(ctx, exc: NoPointFoundError):
    payload = {
        "error": "NoPointFound",
        "message": str(exc),
        "suggestion": "retry over an extension field (raise the field degree)",
    }
    return ctx, payload, [("point_found", False)], EXIT_HYPOTHESIS


def _block_checks(sol, lin, quad, lift=None, lift_on_quadric=False) -> list:
    """The checks that verify a block solution and, when given, its lift.

    `lin` and `quad` are the solution's weighted sums (`evaluate_system`):
    both vanish, some c_i is nonzero and c_r = 0. The lift must lie on the
    quadric (the caller's `lift_on_quadric`) and off the small diagonal; the
    all-zero solution passes the sums, but its lift is a constant vector.
    """
    checks = [
        ("linear_sum_zero", lin.is_zero()),
        ("quadratic_sum_zero", quad.is_zero()),
        ("nontrivial", any(not ci.is_zero() for ci in sol.c)),
        ("last_coordinate_zero", sol.c[-1].is_zero()),
    ]
    if lift is not None:
        checks += [
            ("lift_on_quadric", lift_on_quadric),
            ("lift_off_small_diagonal", not in_small_diagonal(lift)),
        ]
    return checks


def _cmd_check(args):
    decision = check_hypotheses(args.n, args.p, args.degree)
    ctx = field_make(args.p, args.degree)
    payload = decision.to_json()
    payload["exponents"] = list(binary_profile(args.n).exponents)
    code = EXIT_OK if decision.applies else EXIT_HYPOTHESIS
    return ctx, payload, [("applies", decision.applies)], code


def _cmd_solve(args):
    """solve, and construct, which also lifts the solution to a quadric point."""
    try:
        sol = solve_block_system(binary_profile(args.n), args.p)
    except InvalidProfileError as exc:
        return _invalid_profile(args.p, exc)
    lin, quad = evaluate_system(sol)
    payload = sol.to_json()
    payload["checks_values"] = {"linear": lin.to_json(), "quadratic": quad.to_json()}
    lift = None
    on_quad = False
    if args.command == "construct":
        lift = lift_block_solution(sol.profile, sol)
        s1, s2 = power_sums(lift)
        on_quad = s1.is_zero() and s2.is_zero()
        payload["lift"] = lift.to_json()
        payload["lift_sums"] = {"coordinate_sum": s1.to_json(), "square_sum": s2.to_json()}
    checks = _block_checks(sol, lin, quad, lift, on_quad)
    return sol.ctx, payload, checks, _exit_code(checks)


def _cmd_sample(args):
    ctx = _parse_field_spec(args.field)
    try:
        point = sample_quadric_point(args.n, ctx, args.seed, args.max_tries)
    except NoPointFoundError as exc:
        return _no_point(ctx, exc)
    s1, s2 = power_sums(point)
    checks = [
        ("point_found", True),
        ("on_quadric", s1.is_zero() and s2.is_zero()),
        ("off_discriminant", not in_discriminant(point)),
    ]
    payload = {
        "point": point.to_json(),
        "sums": {"coordinate_sum": s1.to_json(), "square_sum": s2.to_json()},
    }
    return ctx, payload, checks, _exit_code(checks)


def _cmd_borel_check(args):
    ctx = _parse_field_spec(args.field)
    master = SplitMix64(args.seed)
    reports = []
    all_identities = True
    for index in range(args.samples):
        point_seed = master.derive_seed()
        try:
            point = sample_quadric_point(args.n, ctx, point_seed)
        except NoPointFoundError as exc:
            return _no_point(ctx, exc)
        g = random_affine(ctx, master)
        report = invariance_report(point, g)
        all_identities = all_identities and report.identities_hold
        reports.append(
            {
                "index": index,
                "seed": point_seed,
                "point": point.to_json(),
                "map": g.to_json(),
                "report": report.to_json(),
            }
        )
    payload = {
        "characteristic_divides_n": args.n % ctx.p == 0,
        "reports": reports,
    }
    checks = [("invariance_identities_all", all_identities)]
    return ctx, payload, checks, _exit_code(checks)


def _cmd_certify(args):
    decision = check_hypotheses(args.n, args.p, args.field_degree)
    ctx = field_make(args.p, args.field_degree)

    block_json = None
    block_ok = True
    if decision.applies:
        sol = solve_block_system(binary_profile(args.n), args.p)
        lift = lift_block_solution(sol.profile, sol)
        block_checks = _block_checks(sol, *evaluate_system(sol), lift, on_quadric(lift))
        block_ok = all(passed for _, passed in block_checks)
        block_json = sol.to_json()
        block_json["lift"] = lift.to_json()

    master = SplitMix64(args.seed)
    samples = []
    all_satisfied = True
    all_witness = True
    ranks = []
    for index in range(args.samples):
        point_seed = master.derive_seed()
        try:
            point = sample_quadric_point(args.n, ctx, point_seed, args.max_tries)
        except NoPointFoundError as exc:
            return _no_point(ctx, exc)
        cert = rank_certificate(point)
        witness = faithfulness_witness(point)
        all_satisfied = all_satisfied and cert.satisfied
        all_witness = all_witness and witness
        ranks.append(cert.restricted_rank)
        samples.append(
            {
                "index": index,
                "seed": point_seed,
                "point": point.to_json(),
                "ambient_rank": cert.ambient_rank,
                "tangent_dim": cert.tangent_dim,
                "restricted_rank": cert.restricted_rank,
                "bound": cert.bound,
                "satisfied": cert.satisfied,
                "faithfulness_witness": witness,
            }
        )
    payload = {
        "hypothesis": decision.to_json(),
        "control": not decision.applies,
        "control_requested": args.control,
        "block_solution": block_json,
        "samples": samples,
        "observed_restricted_ranks": {"min": min(ranks), "max": max(ranks)},
        "verdict": all_satisfied and all_witness and block_ok,
    }
    checks = [
        ("hypotheses_apply", decision.applies),
        ("all_samples_within_bound", all_satisfied),
        ("faithfulness_witness_all", all_witness),
    ]
    if decision.applies:
        checks.append(("block_solution_verified", block_ok))
    # a control run fails hypotheses_apply by design; the rest set the exit code
    return ctx, payload, checks, _exit_code(checks[1:])


# --- argument wiring ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="quadcert",
        description="Exact finite-field constructions and rank certificates "
        "on the power-sum quadric, as reproducible JSON certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", metavar="PATH", default=None, help="write the certificate to PATH instead of stdout")

    p_check = sub.add_parser("check", help="hypothesis gate for (n, p)")
    p_check.add_argument("n", type=int)
    p_check.add_argument("p", type=int)
    p_check.add_argument("--degree", type=int, default=1, help="degree k of the working field GF(p^k)")
    add_json(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve the weighted block system")
    p_solve.add_argument("n", type=int)
    p_solve.add_argument("p", type=int)
    add_json(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_construct = sub.add_parser(
        "construct", help="solve, lift to a length-n point, verify membership"
    )
    p_construct.add_argument("n", type=int)
    p_construct.add_argument("p", type=int)
    add_json(p_construct)
    p_construct.set_defaults(func=_cmd_solve)

    p_sample = sub.add_parser(
        "sample", help="sample a distinct-coordinate point on the quadric"
    )
    p_sample.add_argument("n", type=int)
    p_sample.add_argument("--field", required=True, metavar="P^K", help="field spec, e.g. 11 or 3^4")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--max-tries", type=_positive_int, default=None)
    add_json(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_borel = sub.add_parser(
        "borel-check", help="affine-invariance identity reports at sampled points"
    )
    p_borel.add_argument("n", type=int)
    p_borel.add_argument("--field", required=True, metavar="P^K")
    p_borel.add_argument("--seed", type=int, default=0)
    p_borel.add_argument("--samples", type=_positive_int, default=20)
    add_json(p_borel)
    p_borel.set_defaults(func=_cmd_borel_check)

    p_certify = sub.add_parser(
        "certify", help="full pipeline: gate, block solution, sampled rank certificates"
    )
    p_certify.add_argument("n", type=int)
    p_certify.add_argument("p", type=int)
    p_certify.add_argument("--field-degree", type=int, default=1)
    p_certify.add_argument("--samples", type=_positive_int, default=20)
    p_certify.add_argument("--seed", type=int, default=0)
    p_certify.add_argument("--max-tries", type=_positive_int, default=None)
    p_certify.add_argument(
        "--control",
        action="store_true",
        help="acknowledge an out-of-hypothesis run (p not dividing n); "
        "control runs are auto-detected either way and use the n-3 bound",
    )
    add_json(p_certify)
    p_certify.set_defaults(func=_cmd_certify)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Building the parser costs more than most requests; parse_args keeps no
    # state between calls, so one parser serves every call in the process.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        ctx, payload, checks, code = args.func(args)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {
                name: value
                for name, value in vars(args).items()
                if name not in ("command", "func", "json")
            },
            "field": ctx.to_json(),
            "payload": payload,
            "checks": [{"name": name, "passed": bool(ok)} for name, ok in checks],
        }
        _emit(doc, args.json)
    except (EvenCharacteristicError, NotPrimeError, UsageError) as exc:
        sys.stderr.write(f"quadcert {args.command}: error: {exc}\n")
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
