"""The command line as argparse defined it: the oracle of `quadcert.cli._parse`.

`build_parser` is the definition the CLI used before its own parser, moved
here unchanged, with the two count and seed converters raising argparse's
ArgumentTypeError, and with argparse's prefix matching of long options off
in each of its parsers. `parse` reads one argv with it and says whether
argparse accepted it (with its values, `func` left out, and the words it
read as integers), refused it (exit 4) or showed help (exit 0).
`tests/test_parser.py` checks `quadcert.cli` against it.
"""

import argparse
import contextlib
import io
import sys

from quadcert.cli import (
    _cmd_borel_check,
    _cmd_certify,
    _cmd_check,
    _cmd_construct,
    _cmd_sample,
    _cmd_solve,
)

EXIT_USAGE = 4
_integers = []  # the words argparse converted to integers in the last `parse`


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; the certificate contract reserves 2
    for hypothesis failures, so usage errors are remapped to 4. Each word
    converted by an integer type is noted in `_integers`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _get_value(self, action, arg_string):
        if action.type in (int, _positive_int, _seed):
            _integers.append(arg_string)
        return super()._get_value(action, arg_string)


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
    p_construct.set_defaults(func=_cmd_construct)

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

    for p in (parser, p_check, p_solve, p_construct, p_sample, p_borel, p_certify):
        p.allow_abbrev = False
    return parser


PARSER = build_parser()


def parse(argv) -> tuple:
    """("values", the parsed values without `func`, the words read as
    integers), ("refused",) or ("help",)."""
    _integers.clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = PARSER.parse_args(list(argv))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("refused",)
    values = vars(args)
    del values["func"]
    return "values", values, tuple(_integers)
