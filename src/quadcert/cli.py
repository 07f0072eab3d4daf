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
carries. Exit 4 comes from UsageError alone, which includes every refusal of
the parser (`_parse`), EvenCharacteristicError and NotPrimeError; it writes
no document and one line on stderr. `-h` or `--help` writes help to stdout
and exits 0. Any other exception is an internal fault and is not caught.
"""

from __future__ import annotations

import math
import re
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


def _int(text: str, low=-math.inf, high=math.inf, expected="an integer") -> int:
    """The integer `text` names; UsageError unless it lies in [low, high)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not low <= value < high:
        raise UsageError(f"expected {expected}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Converter for counts: a zero or negative count would make a run
    vacuous (no samples) or report a search that never ran (no tries)."""
    return _int(text, 1, expected="a positive integer")


def _seed(text: str) -> int:
    """Converter for seeds: SplitMix64 keeps the low 64 bits of its seed,
    so a seed outside [0, 2^64) would draw the points of another seed while
    the certificate records its own."""
    return _int(text, 0, 1 << 64, "a seed in [0, 2^64)")


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


def _cmd_check(n, p, degree):
    decision = check_hypotheses(n, p, degree)
    ctx = field_make(p, degree)
    payload = _json(decision)
    payload["exponents"] = list(binary_profile(n).exponents)
    code = EXIT_OK if decision.applies else EXIT_HYPOTHESIS
    return ctx, payload, [("applies", decision.applies)], code


def _cmd_solve(n, p, construct=False):
    """solve, and construct, which also lifts the solution to a quadric point."""
    sol = solve_block_system(binary_profile(n), p)
    lin, quad = evaluate_system(sol)
    payload = _solution(sol)
    payload["checks_values"] = {"linear": _json(lin), "quadratic": _json(quad)}
    lift = None
    on_quad = False
    if construct:
        lift = lift_block_solution(sol)
        s1, s2 = power_sums(lift)
        on_quad = s1.is_zero() and s2.is_zero()
        payload["lift"] = _json(lift)
        payload["lift_sums"] = {"coordinate_sum": _json(s1), "square_sum": _json(s2)}
    checks = _block_checks(sol, lin, quad, lift, on_quad)
    return sol.ctx, payload, checks, _exit_code(checks)


def _cmd_construct(n, p):
    return _cmd_solve(n, p, construct=True)


def _cmd_sample(n, field, seed, max_tries):
    ctx = _parse_field_spec(field)
    point = sample_quadric_point(n, ctx, seed, max_tries)
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


def _cmd_borel_check(n, field, seed, samples):
    ctx = _parse_field_spec(field)
    master = SplitMix64(seed)
    reports = []
    for index, point_seed, point in _sampled_points(n, ctx, master, samples):
        g = random_affine(ctx, master)
        reports.append(
            {
                "index": index,
                "seed": point_seed,
                "point": _json(point),
                "map": _json(g),
                "report": _json(invariance_report(point, g)),
            }
        )
    identities = all(r["report"]["identities_hold"] for r in reports)
    payload = {"characteristic_divides_n": n % ctx.p == 0, "reports": reports}
    checks = [("invariance_identities_all", identities)]
    return ctx, payload, checks, _exit_code(checks)


def _cmd_certify(n, p, field_degree, samples, seed, max_tries, control):
    decision = check_hypotheses(n, p, field_degree)
    ctx = field_make(p, field_degree)

    block_json = None
    block_ok = True
    if decision.applies:
        sol = solve_block_system(binary_profile(n), p)
        lift = lift_block_solution(sol)
        block_checks = _block_checks(sol, *evaluate_system(sol), lift, on_quadric(lift))
        block_ok = all(passed for _, passed in block_checks)
        block_json = _solution(sol)
        block_json["lift"] = _json(lift)

    points = _sampled_points(n, ctx, SplitMix64(seed), samples, max_tries)
    rows = []
    for index, point_seed, point in points:
        cert = rank_certificate(point)
        rows.append(
            {
                "index": index,
                "seed": point_seed,
                "point": _json(point),
                "ambient_rank": cert.ambient_rank,
                "tangent_dim": cert.tangent_dim,
                "restricted_rank": cert.restricted_rank,
                "bound": cert.bound,
                "satisfied": cert.satisfied,
                "faithfulness_witness": faithfulness_witness(point),
            }
        )
    ranks = [s["restricted_rank"] for s in rows]
    all_satisfied = all(s["satisfied"] for s in rows)
    all_witness = all(s["faithfulness_witness"] for s in rows)
    payload = {
        "hypothesis": _json(decision),
        "control": not decision.applies,
        "control_requested": control,
        "block_solution": block_json,
        "samples": rows,
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


# --- the command line ----------------------------------------------------------
#
# `_COMMANDS` is the grammar: each command's function, positionals (integers,
# in order), summary and options. An option is (flag, dest, converter,
# default, help); with no converter it is a flag that takes no value and sets
# True. `_parse` reads every argv as the standard library's parser read this
# grammar before it (tests/test_parser.py), so each keeps its meaning; only a
# word "--", which that parser dropped or read as the end of the options, is
# refused.

_REQUIRED = object()  # the default of an option that must be given
_FIELD = ("--field", "field", str, _REQUIRED, "field spec P or P^K, such as 11 or 3^4")
_SEED = ("--seed", "seed", _seed, 0, "seed of the sampled points, in [0, 2^64)")
_SAMPLES = ("--samples", "samples", _positive_int, 20, "number of sampled points")
_MAX_TRIES = ("--max-tries", "max_tries", _positive_int, None, "tries per point before exit 2")
_DEGREE = "degree k of the working field GF(p^k)"
_JSON = ("--json", "json", str, None, "write the certificate to this file instead of stdout")
_HELP = ("--help", "help", None, False, "show this help and exit (also -h)")
_COMMANDS = {
    "check": (_cmd_check, ("n", "p"), "hypothesis gate for (n, p)", [("--degree", "degree", _int, 1, _DEGREE)]),
    "solve": (_cmd_solve, ("n", "p"), "solve the weighted block system", []),
    "construct": (_cmd_construct, ("n", "p"), "solve, lift to a length-n point, verify membership", []),
    "sample": (_cmd_sample, ("n",), "sample a distinct-coordinate point on the quadric", [_FIELD, _SEED, _MAX_TRIES]),
    "borel-check": (_cmd_borel_check, ("n",), "affine-invariance reports at sampled points", [_FIELD, _SEED, _SAMPLES]),
    "certify": (_cmd_certify, ("n", "p"), "full pipeline: gate, block solution, sampled rank certificates", [
        ("--field-degree", "field_degree", _int, 1, _DEGREE), _SAMPLES, _SEED, _MAX_TRIES,
        ("--control", "control", None, False, "acknowledge a run with p not dividing n (detected either way)"),
    ]),
}
_TOP = {"-h": _HELP, "--help": _HELP}
_FLAGS = {name: {o[0]: o for o in spec[3] + [_JSON]} | _TOP for name, spec in _COMMANDS.items()}


def _help(command) -> None:
    """Write the help of `command`, or the list of commands for None."""
    if command is None:
        head = "usage: quadcert COMMAND ... (-h after COMMAND for its options)\n\ncommands:"
        rows = [(name, spec[2]) for name, spec in _COMMANDS.items()]
    else:
        _, positionals, summary, options = _COMMANDS[command]
        head = f"usage: quadcert {command} {' '.join(positionals)} [options]\n\n{summary}\n\noptions:"
        rows = [(o[0] + (o[2] and " " + o[1].upper() or ""), o[4]) for o in options + [_JSON, _HELP]]
    sys.stdout.write(head + "".join(f"\n  {name:<28} {text}" for name, text in rows) + "\n")


def _match(arg: str, flags: dict):
    """The reading of one argument: None for a value, else (option, the
    text after "=" or None), the option None if unknown. A prefix of one long
    flag names it; a prefix of several is refused."""
    if arg in flags:
        return flags[arg], None
    if arg[:1] != "-" or arg == "-":
        return None
    flag, eq, text = arg.partition("=")
    if arg[1] == "-":
        found = [flag] if flag in flags else [name for name in flags if name.startswith(flag)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option {flag}, which could be {' or '.join(found)}")
        if found:
            return flags[found[0]], text if eq else None
    elif arg[:2] in flags:  # -h with text run on
        return flags[arg[:2]], arg[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:  # a negative number, say
        return None
    return None, None


def _parse(argv) -> dict | None:
    """The values of argv, with its command under "command"; None once help is
    written. Options may come anywhere after the command and the last of a
    repeated one wins. Raises UsageError for every argv it refuses: one with
    a word "--", or a command, option or value that is unknown, ambiguous,
    missing, extra, or refused by its converter."""
    if "--" in argv:  # every value can be written without it
        raise UsageError("unknown argument --")
    unknown = []  # refused once the whole argv is read, so a later -h still helps
    for index, command in enumerate(argv):
        if (hit := _match(command, _TOP)) is None:
            break
        if hit[0] is None:
            unknown.append(command)
        elif hit[1] is None:
            return _help(None)
        else:
            raise UsageError("--help takes no value")
    else:
        raise UsageError("expected a command")
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}; choose from {', '.join(_COMMANDS)}")
    rest, (_, slots, _, options) = argv[index + 1 :], _COMMANDS[command]
    hits = [_match(arg, _FLAGS[command]) for arg in rest]
    values = {"command": command} | {o[1]: o[3] for o in options + [_JSON]}
    slots, i = list(slots), 0
    while i < len(rest):
        if hits[i] is None and slots:
            values[slots.pop(0)] = _int(rest[i])
        elif hits[i] is None or hits[i][0] is None:
            unknown.append(rest[i])
        else:
            (flag, dest, convert, _, _), text = hits[i]
            if convert is None and text is not None:
                raise UsageError(f"{flag} takes no value")
            if dest == "help":
                return _help(command)
            if convert is not None and text is None:
                if i + 1 == len(rest) or hits[i + 1] is not None:
                    raise UsageError(f"{flag} expects a value")
                i, text = i + 1, rest[i + 1]
            values[dest] = True if convert is None else convert(text)
        i += 1
    missing = slots + [o[0] for o in options if values[o[1]] is _REQUIRED]
    if missing or unknown:
        raise UsageError(f"missing {' '.join(missing)}" if missing else f"unknown arguments {' '.join(unknown)}")
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        if args is None:  # help was written
            return EXIT_OK
        command, json_path = args.pop("command"), args.pop("json")
        try:
            ctx, payload, checks, code = _COMMANDS[command][0](**args)
        except RefusalError as exc:
            ctx, payload, code = exc.ctx, {"message": str(exc)}, EXIT_HYPOTHESIS
            if isinstance(exc, InvalidProfileError):
                payload["error"], checks = "InvalidProfile", [("solvable_profile", False)]
            else:
                payload["error"], checks = "NoPointFound", [("point_found", False)]
                payload["suggestion"] = "retry over an extension field (raise the field degree)"
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": args,
            "field": _field(ctx),
            "payload": payload,
            "checks": [{"name": name, "passed": bool(ok)} for name, ok in checks],
        }
        _emit(doc, json_path)
    except UsageError as exc:
        prog = f"quadcert {argv[0]}" if argv and argv[0] in _COMMANDS else "quadcert"
        sys.stderr.write(f"{prog}: error: {exc}\n")
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
