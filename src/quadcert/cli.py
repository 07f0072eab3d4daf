r"""Command-line front end emitting reproducible JSON certificates.

Every command produces one certificate document:

    {schema_version, command, inputs, field, payload, checks}

Its `inputs` are the command's parsed arguments other than `--json`. The
commands put package values into their payloads as they are, and only the
writer, `canonical_json`, turns them into text; no model class writes its
own. A document holds integers, strings, booleans, nulls, arrays (lists),
objects (dicts with string keys) and three kinds of package value: a field
element, written as its coefficient vector, low degree first; a point
(`AmbientPoint`) or a block lift (`BlockLift`), one such vector per
coordinate, a point's n codes converted in one call and a lift's r run
codes in one call, each run written as its row text repeated, without
walking its coordinates; and any other record (`quadcert.record`), the
object of its fields, a tuple field as an array.

The bytes are exactly those of `json.dumps(doc, sort_keys=True, indent=2)
+ "\n"` for the document with its package values so written: keys sorted,
each item of a non-empty array or object on its own line indented two
spaces per level (empty ones as [] and {}), separators "," and ": ",
strings with ASCII escapes (non-ASCII text as \uXXXX), and a trailing
newline. `canonical_json` walks the document once, appends every piece of
text to one buffer and joins it at the end. It writes a field element's
coefficient vector as one join of the coefficients' texts, and the rows of
a point or a lift from one `coefficient_texts` call, which joins each row's
coefficients by the separator of their indent. A point's array is then one
join of those texts, each row's closing and the next row's opening bracket
in the separator; a lift brackets each run's row and repeats it. It keeps
nothing between calls, and raises TypeError on any other value, such as a
float (it may be NaN or infinite, which JSON cannot express), a non-string
key (it would be rewritten as a string without notice), an int subclass or
a tuple that is not a record field. Identical inputs therefore reproduce
identical bytes.

Exit codes: 0 success, 2 hypotheses not met, 3 a verification check
failed, 4 usage error. Exit 2 comes from the gate's decision (`check`'s own,
and `solve_block_system`'s InvalidProfileError) and from NoPointFoundError;
`main` writes the refusal document of both from the field the error
carries. Exit 4 comes from UsageError alone, which includes every refusal of
the parser (`_parse`), EvenCharacteristicError and NotPrimeError; it writes
no document and one line on stderr. The parser reads the README's grammar:
an option is its flag in full, an integer `0|-?[1-9][0-9]*`, and a word -h
or --help anywhere shows help (exit 0). Other exceptions are internal faults.
certify's verdict is the conjunction of the checks that set its exit code,
every check but hypotheses_apply.
"""

from __future__ import annotations

import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from .actions import random_affine, invariance_report
from .compression import faithfulness_witness, rank_certificate
from .errors import InvalidProfileError, RefusalError, UsageError
from .gf import SIZE_LIMIT, FieldElement, field_make
from .profile import binary_profile, check_hypotheses
from .quadric import (
    AmbientPoint,
    in_discriminant,
    in_small_diagonal,
    on_quadric,  # unread: perfbench/tracing.py wraps it here until ROADMAP item 17 part B
    power_sums,
    sample_quadric_point,
)
from .record import Record
from .rng import SplitMix64
from .trace_system import BlockLift, evaluate_system, lift_block_solution, solve_block_system

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_VERIFY = 3
EXIT_USAGE = 4

_DIGITS = "[1-9][0-9]*"  # ASCII decimal with no leading zero
_INTEGER = re.compile(f"0|-?{_DIGITS}")  # the one spelling of an integer (README)


def _int(text: str, low=-math.inf, high=math.inf, expected="an integer") -> int:
    """The integer `text` spells; UsageError unless it lies in [low, high)."""
    try:
        value = int(text) if _INTEGER.fullmatch(text) else None
    except ValueError:  # more digits than int() reads
        value = None
    if value is None or not low <= value < high:
        raise UsageError(f"expected {expected}, got {_shown(text)}")
    return value


def _shown(word: str) -> str:
    """An argv word or a path as a refusal echoes it: its repr, cut to 60 characters."""
    return repr(word)[:60]


def _positive_int(text: str) -> int:
    """Converter for counts: a zero or negative count would make a run
    vacuous (no samples) or report a search that never ran (no tries)."""
    return _int(text, 1, expected="a positive integer")


def _seed(text: str) -> int:
    """Converter for seeds: SplitMix64 keeps the low 64 bits of its seed,
    so a seed outside [0, 2^64) would draw the points of another seed while
    the certificate records its own."""
    return _int(text, 0, 1 << 64, "a seed in [0, 2^64)")


def _write(value, indent: str, out: list) -> None:
    """Append the text of `value` to `out`, the value placed on a line that
    starts with `indent` (a newline and two spaces per nesting level)."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is dict:
        inner = sep = indent + "  "  # no "," before the first item
        out.append("[" if kind is list else "{")
        # a key that is not a string raises TypeError in sorted() or _quote()
        for key, item in enumerate(value) if kind is list else sorted(value.items()):
            out.append(sep if kind is list else sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append((indent if value else "") + ("]" if kind is list else "}"))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is FieldElement:
        out.append(_array(map(str, value.coeffs), indent))
    elif kind is AmbientPoint:
        # one join of the coefficient texts, each row's brackets in the separator
        row, item = indent + "  ", indent + "    "
        head, tail = "[" + item, row + "]"
        texts = value.ctx.coefficient_texts(value.codes, "," + item)
        out.append("[" + row + head + (tail + "," + row + head).join(texts) + tail + indent + "]")
    elif kind is BlockLift:
        # a run is its row text count times, a separator after each but the last
        rows, sep = _rows(value, indent), "," + indent + "  "
        out.append(_array([(row + sep) * (count - 1) + row for row, count in zip(rows, value.counts)], indent))
    elif isinstance(value, Record):
        _write(_fields(value), indent, out)
    else:
        raise TypeError(
            "certificate values are int, str, bool, None, list, dict, FieldElement,"
            f" AmbientPoint, BlockLift or another Record, not {kind.__name__}"
        )


def _rows(value, indent: str) -> list:
    """The row texts of a lift's run codes, in code order: each code's
    coefficient vector as an item of the array at `indent`, its
    coefficients joined by one `coefficient_texts` call and bracketed."""
    inner = indent + "    "
    head, tail = "[" + inner, indent + "  ]"
    return [head + text + tail for text in value.ctx.coefficient_texts(value.codes, "," + inner)]


def _array(parts, indent: str) -> str:
    """The text of a non-empty array of these item texts."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(parts) + indent + "]"


def _fields(record) -> dict:
    """The object of a record's fields, a tuple field as an array."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return {name: list(v) if type(v) is tuple else v for name, v in fields.items()}


def canonical_json(doc: dict) -> str:
    """The certificate text of `doc` (format in the module docstring)."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(doc: dict, json_path: str | None) -> None:
    text = canonical_json(doc)
    if json_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission, a full disk
        raise UsageError(f"cannot write {_shown(json_path)}: {exc.strerror}") from None


def _field(ctx) -> dict:
    return {"p": ctx.p, "k": ctx.k, "modulus": list(ctx.modulus)}


def _parse_field_spec(spec: str):
    """'p' or 'p^k' in ASCII decimal digits, no leading zero -> FieldCtx;
    UsageError on any other spelling, so `inputs.field` is always plain."""
    match = re.fullmatch(f"(0|{_DIGITS})(?:\\^(0|{_DIGITS}))?", spec)
    try:
        p, k = int(match[1]), int(match[2] or 1)
    except (TypeError, ValueError):  # no match, or more digits than int() reads
        raise UsageError(f"malformed field spec {_shown(spec)}; expected integers p or p^k") from None
    return field_make(p, k)


# --- subcommand implementations ---------------------------------------------
#
# Each returns (field, payload, checks, exit code), or raises a RefusalError;
# `main` wraps either in the envelope. `checks` is a list of (name, passed)
# pairs. solve, construct and certify solve, lift and check the block system
# in one place, `_block`.


def _exit_code(checks) -> int:
    return EXIT_OK if all(passed for _, passed in checks) else EXIT_VERIFY


def _cmd_check(n, p, degree):
    decision = check_hypotheses(n, p, degree)
    ctx = field_make(p, degree)
    payload = _fields(decision)
    payload["exponents"] = list(binary_profile(n).exponents)
    code = EXIT_OK if decision.applies else EXIT_HYPOTHESIS
    return ctx, payload, [("applies", decision.applies)], code


def _block(n, p, lift):
    """Solve the block system of (n, p) and, with `lift`, lift the solution
    to its runs (`BlockLift`): (field, payload, checks, sums), `sums` the
    entries that solve and construct add to the payload. The checks: both
    weighted sums vanish, some c_i is nonzero and c_r = 0; the lift lies on
    the quadric and off the small diagonal, as the all-zero solution lifts
    to a constant. The lift's sums are `power_sums` of its r runs, each code
    with its count, apart from `evaluate_system`: they are the sums of the
    n coordinates the document writes. A count 2^(m_i) reduces mod p to the
    weight w_i, so on runs that repeat the solution's codes with counts =
    w_i (mod p) the check reads the system's two sums again, and runs that
    repeat anything else must pass it on their own.
    """
    sol = solve_block_system(binary_profile(n), p)
    lin, quad = evaluate_system(sol)
    payload = {
        "n": n,
        "exponents": list(sol.profile.exponents),
        "weights": list(sol.weights),
        "c": list(sol.c),
        "field": _field(sol.ctx),
    }
    checks = [
        ("linear_sum_zero", lin.is_zero()),
        ("quadratic_sum_zero", quad.is_zero()),
        ("nontrivial", any(not ci.is_zero() for ci in sol.c)),
        ("last_coordinate_zero", sol.c[-1].is_zero()),
    ]
    sums = {"checks_values": {"linear": lin, "quadratic": quad}}
    if lift:
        runs = payload["lift"] = lift_block_solution(sol)
        s1, s2 = power_sums(runs)
        checks += [
            ("lift_on_quadric", s1.is_zero() and s2.is_zero()),
            ("lift_off_small_diagonal", not in_small_diagonal(runs)),
        ]
        sums["lift_sums"] = {"coordinate_sum": s1, "square_sum": s2}
    return sol.ctx, payload, checks, sums


def _cmd_solve(n, p, lift=False):
    """solve, and with `lift` construct."""
    ctx, payload, checks, sums = _block(n, p, lift)
    return ctx, payload | sums, checks, _exit_code(checks)


def _cmd_construct(n, p):
    return _cmd_solve(n, p, lift=True)


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
        "point": point,
        "sums": {"coordinate_sum": s1, "square_sum": s2},
    }
    return ctx, payload, checks, _exit_code(checks)


def _sampled_points(n, ctx, master, samples, max_tries=None):
    """(index, seed, point) for each sample, the point sampled from the
    master's next seed. The caller keeps the master, so what it draws from
    it between points comes next in its stream. A request whose points hold
    more than gf.SIZE_LIMIT coordinates in all is refused before the first
    draw: its document writes one row per coordinate."""
    if n * samples > SIZE_LIMIT:
        raise UsageError(f"{samples} samples of n={n} coordinates exceed the limit of {SIZE_LIMIT} coordinates")
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
                "point": point,
                "map": g,
                "report": invariance_report(point, g),
            }
        )
    identities = all(r["report"].identities_hold for r in reports)
    payload = {"characteristic_divides_n": n % ctx.p == 0, "reports": reports}
    checks = [("invariance_identities_all", identities)]
    return ctx, payload, checks, _exit_code(checks)


def _cmd_certify(n, p, field_degree, samples, seed, max_tries, control):
    decision = check_hypotheses(n, p, field_degree)
    ctx = field_make(p, field_degree)
    block, verified = None, []
    if decision.applies:
        _, block, block_checks, _ = _block(n, p, lift=True)
        verified = [("block_solution_verified", all(passed for _, passed in block_checks))]
    rows = [
        _fields(rank_certificate(point))
        | {"index": index, "seed": point_seed, "point": point, "faithfulness_witness": faithfulness_witness(point)}
        for index, point_seed, point in _sampled_points(n, ctx, SplitMix64(seed), samples, max_tries)
    ]
    checks = [
        ("hypotheses_apply", decision.applies),
        ("all_samples_within_bound", all(row["satisfied"] for row in rows)),
        ("faithfulness_witness_all", all(row["faithfulness_witness"] for row in rows)),
    ] + verified
    ranks = [row["restricted_rank"] for row in rows]
    payload = {
        "hypothesis": decision,
        "control": not decision.applies,
        "control_requested": control,
        "block_solution": block,
        "samples": rows,
        "observed_restricted_ranks": {"min": min(ranks), "max": max(ranks)},
        "verdict": all(passed for _, passed in checks[1:]),
    }
    # a control run fails hypotheses_apply by design; the rest set the exit code
    return ctx, payload, checks, _exit_code(checks[1:])


# --- the command line ----------------------------------------------------------
#
# `_COMMANDS` is the grammar: each command's function, positionals (integers,
# in order), summary and options. An option is (flag, dest, converter,
# default, help); with no converter it is a flag that takes no value and sets
# True. Each option has one spelling, its flag in full (README grammar).

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
_FLAGS = {name: {o[0]: o for o in spec[3] + [_JSON, _HELP]} | {"-h": _HELP} for name, spec in _COMMANDS.items()}


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


def _is_value(word: str) -> bool:
    """Whether a word that names no option is a value: it does not start
    with "-", is "-" alone, is a negative integer or holds a space."""
    return word[:1] != "-" or word == "-" or " " in word or _INTEGER.fullmatch(word) is not None


def _parse(argv) -> dict | None:
    """The values of argv under the README's grammar, with its command under
    "command"; None once help is written. Raises UsageError for every argv it
    refuses: one with a word "--", or a command, option or value that is
    unknown, missing, extra, or refused by its converter."""
    if "--" in argv:  # every value can be written without it
        raise UsageError("unknown argument --")
    if not argv:
        raise UsageError("expected a command")
    command = argv[0]
    if "-h" in argv or "--help" in argv:
        return _help(command if command in _COMMANDS else None)
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {_shown(command)}; choose from {', '.join(_COMMANDS)}")
    _, slots, _, options = _COMMANDS[command]
    values = {"command": command} | {o[1]: o[3] for o in options + [_JSON]}
    slots, words = list(slots), iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        option = _FLAGS[command].get(flag)
        if option is None:
            if not _is_value(word):
                raise UsageError(f"unknown option {_shown(word)}")
            if not slots:
                raise UsageError(f"extra value {_shown(word)}")
            values[slots.pop(0)] = _int(word)
        elif option[2] is None:  # a flag; -h and --help alone were read above
            if eq:
                raise UsageError(f"{flag} takes no value")
            values[option[1]] = True
        else:
            if not eq:
                text = next(words, None)
                if text is None or text.partition("=")[0] in _FLAGS[command] or not _is_value(text):
                    raise UsageError(f"{flag} expects a value")
            values[option[1]] = option[2](text)
    missing = slots + [o[0] for o in options if values[o[1]] is _REQUIRED]
    if missing:
        raise UsageError(f"missing {' '.join(missing)}")
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
        sys.stderr.write(f"{prog}: error: {exc}"[:200] + "\n")  # an int in it may have 4300 digits
        return EXIT_USAGE
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
