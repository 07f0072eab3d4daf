r"""Command-line front end emitting reproducible JSON certificates.

Every command produces one certificate document:

    {schema_version, command, inputs, field, payload, checks}

Its `inputs` are the command's parsed arguments other than `--json`. This
module alone turns package values into document values (`_json`, `_field`,
`_solution`); no model class writes its own, and a record is the object of
its fields. A document contains only integers, strings, booleans, nulls,
arrays (lists) and objects (dicts with string keys). Field elements appear
as coefficient vectors, low degree first.

The bytes are exactly those of `json.dumps(doc, sort_keys=True, indent=2)
+ "\n"`: keys sorted, each item of a non-empty array or object on its own
line indented two spaces per level (empty ones as [] and {}), separators
"," and ": ", strings with ASCII escapes (non-ASCII text as \uXXXX), and a
trailing newline. `canonical_json` writes them in one pass and raises
TypeError on any other value, such as a float (it may be NaN or infinite,
which JSON cannot express), a non-string key (it would be rewritten as a
string without notice) or a tuple. Identical inputs therefore reproduce
identical bytes. `_json` writes a point as one shared list per distinct
coordinate, and the writer renders each shared list once per point.

Exit codes: 0 success, 2 hypotheses not met, 3 a verification check
failed, 4 usage error. Exit 2 comes from the gate's decision (`check`'s own,
and `solve_block_system`'s InvalidProfileError) and from NoPointFoundError;
`main` writes the refusal document of both from the field the error
carries. Exit 4 comes from the parser and from UsageError, which includes
EvenCharacteristicError and NotPrimeError, and writes no document. Any
other exception is an internal fault and is not caught.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .actions import random_affine, invariance_report
from .compression import faithfulness_witness, rank_certificate
from .errors import InvalidProfileError, RefusalError, UsageError
from .gf import FieldElement, field_make
from .profile import binary_profile, check_hypotheses
from .quadric import (
    AmbientPoint,
    in_discriminant,
    in_small_diagonal,
    on_quadric,
    power_sums,
    sample_quadric_point,
)
from .record import Record
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


def _seed(text: str) -> int:
    """argparse type for seeds: SplitMix64 keeps the low 64 bits of its seed,
    so a seed outside [0, 2^64) would draw the points of another seed while
    the certificate records its own."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2^64), got {text!r}")
    return value


def _encode(value, indent: str) -> str:
    """The text of `value`, placed on a line that starts with `indent` (a
    newline and two spaces per nesting level)."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        # a vector, a list of vectors (a point or a lift), or anything else
        kinds = set(map(type, value))
        ids = list(map(id, value)) if kinds == {list} else ()
        rows = dict(zip(ids, value))
        if kinds == {int}:
            parts = map(int.__repr__, value)
        elif rows and set(map(type, chain.from_iterable(rows.values()))) <= {int}:
            # `_json` shares one list per distinct code, so each row object
            # is type-checked and rendered once; `value` holds every row for
            # the whole call, so no id is reused
            head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
            text = {
                key: head + sep.join(map(int.__repr__, row)) + tail if row else "[]"
                for key, row in rows.items()
            }
            parts = map(text.__getitem__, ids)
        else:
            parts = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # a key that is not a string raises TypeError in sorted() or _quote()
        parts = [_quote(key) + ": " + _encode(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
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
    return _encode(doc, "\n") + "\n"


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


def _json(value):
    """The document value of a package value: a field element is its
    coefficient list, a bool, int, str or None is already one, a point is one
    coefficient list per coordinate (made once per distinct code), a tuple a
    list, and any other record (`quadcert.record`) the object of its fields.
    Any other value raises TypeError."""
    if isinstance(value, FieldElement):
        return list(value.coeffs)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, AmbientPoint):
        distinct = list(set(value.codes))
        rows = dict(zip(distinct, value.ctx.coefficient_rows(distinct)))
        return list(map(rows.__getitem__, value.codes))
    if isinstance(value, tuple):
        return list(map(_json, value))
    if isinstance(value, Record):
        return {name: _json(getattr(value, name)) for name in value.__slots__}
    raise TypeError(f"a {type(value).__name__} has no document value")


def _field(ctx) -> dict:
    return {"p": ctx.p, "k": ctx.k, "modulus": list(ctx.modulus)}


def _solution(sol) -> dict:
    """A block solution: its profile, weights, values c_i and field."""
    return {
        "n": sol.profile.n,
        "exponents": list(sol.profile.exponents),
        "weights": list(sol.weights),
        "c": _json(sol.c),
        "field": _field(sol.ctx),
    }


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
# Each returns (field, payload, checks, exit code), or raises a RefusalError;
# `main` wraps either in the envelope. `checks` is a list of (name, passed)
# pairs.


def _exit_code(checks) -> int:
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_VERIFY


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
    payload = _json(decision)
    payload["exponents"] = list(binary_profile(args.n).exponents)
    code = EXIT_OK if decision.applies else EXIT_HYPOTHESIS
    return ctx, payload, [("applies", decision.applies)], code


def _cmd_solve(args):
    """solve, and construct, which also lifts the solution to a quadric point."""
    sol = solve_block_system(binary_profile(args.n), args.p)
    lin, quad = evaluate_system(sol)
    payload = _solution(sol)
    payload["checks_values"] = {"linear": _json(lin), "quadratic": _json(quad)}
    lift = None
    on_quad = False
    if args.command == "construct":
        lift = lift_block_solution(sol)
        s1, s2 = power_sums(lift)
        on_quad = s1.is_zero() and s2.is_zero()
        payload["lift"] = _json(lift)
        payload["lift_sums"] = {"coordinate_sum": _json(s1), "square_sum": _json(s2)}
    checks = _block_checks(sol, lin, quad, lift, on_quad)
    return sol.ctx, payload, checks, _exit_code(checks)


def _cmd_sample(args):
    ctx = _parse_field_spec(args.field)
    point = sample_quadric_point(args.n, ctx, args.seed, args.max_tries)
    s1, s2 = power_sums(point)
    checks = [
        ("point_found", True),
        ("on_quadric", s1.is_zero() and s2.is_zero()),
        ("off_discriminant", not in_discriminant(point)),
    ]
    payload = {
        "point": _json(point),
        "sums": {"coordinate_sum": _json(s1), "square_sum": _json(s2)},
    }
    return ctx, payload, checks, _exit_code(checks)


def _sampled_points(n, ctx, master, samples, max_tries=None):
    """(index, seed, point) for each sample, the point sampled from the
    master's next seed. The caller keeps the master, so what it draws from
    it between points comes next in its stream."""
    for index in range(samples):
        seed = master.next_u64()
        yield index, seed, sample_quadric_point(n, ctx, seed, max_tries)


def _cmd_borel_check(args):
    ctx = _parse_field_spec(args.field)
    master = SplitMix64(args.seed)
    reports = []
    for index, seed, point in _sampled_points(args.n, ctx, master, args.samples):
        g = random_affine(ctx, master)
        reports.append(
            {
                "index": index,
                "seed": seed,
                "point": _json(point),
                "map": _json(g),
                "report": _json(invariance_report(point, g)),
            }
        )
    identities = all(r["report"]["identities_hold"] for r in reports)
    payload = {"characteristic_divides_n": args.n % ctx.p == 0, "reports": reports}
    checks = [("invariance_identities_all", identities)]
    return ctx, payload, checks, _exit_code(checks)


def _cmd_certify(args):
    decision = check_hypotheses(args.n, args.p, args.field_degree)
    ctx = field_make(args.p, args.field_degree)

    block_json = None
    block_ok = True
    if decision.applies:
        sol = solve_block_system(binary_profile(args.n), args.p)
        lift = lift_block_solution(sol)
        block_checks = _block_checks(sol, *evaluate_system(sol), lift, on_quadric(lift))
        block_ok = all(passed for _, passed in block_checks)
        block_json = _solution(sol)
        block_json["lift"] = _json(lift)

    points = _sampled_points(args.n, ctx, SplitMix64(args.seed), args.samples, args.max_tries)
    samples = []
    for index, seed, point in points:
        cert = rank_certificate(point)
        samples.append(
            {
                "index": index,
                "seed": seed,
                "point": _json(point),
                "ambient_rank": cert.ambient_rank,
                "tangent_dim": cert.tangent_dim,
                "restricted_rank": cert.restricted_rank,
                "bound": cert.bound,
                "satisfied": cert.satisfied,
                "faithfulness_witness": faithfulness_witness(point),
            }
        )
    ranks = [s["restricted_rank"] for s in samples]
    all_satisfied = all(s["satisfied"] for s in samples)
    all_witness = all(s["faithfulness_witness"] for s in samples)
    payload = {
        "hypothesis": _json(decision),
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
    p_sample.add_argument("--seed", type=_seed, default=0)
    p_sample.add_argument("--max-tries", type=_positive_int, default=None)
    add_json(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_borel = sub.add_parser(
        "borel-check", help="affine-invariance identity reports at sampled points"
    )
    p_borel.add_argument("n", type=int)
    p_borel.add_argument("--field", required=True, metavar="P^K")
    p_borel.add_argument("--seed", type=_seed, default=0)
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
    p_certify.add_argument("--seed", type=_seed, default=0)
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
        try:
            ctx, payload, checks, code = args.func(args)
        except RefusalError as exc:
            ctx, payload, code = exc.ctx, {"message": str(exc)}, EXIT_HYPOTHESIS
            if isinstance(exc, InvalidProfileError):
                payload["error"], checks = "InvalidProfile", [("solvable_profile", False)]
            else:
                payload["error"], checks = "NoPointFound", [("point_found", False)]
                payload["suggestion"] = "retry over an extension field (raise the field degree)"
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {
                name: value
                for name, value in vars(args).items()
                if name not in ("command", "func", "json")
            },
            "field": _field(ctx),
            "payload": payload,
            "checks": [{"name": name, "passed": bool(ok)} for name, ok in checks],
        }
        _emit(doc, args.json)
    except UsageError as exc:
        sys.stderr.write(f"quadcert {args.command}: error: {exc}\n")
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
