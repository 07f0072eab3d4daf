"""The command-line parser reads every argv as the README's grammar says,
and as argparse read it.

`quadcert.cli._parse` replaced an argparse definition, which
`tests/_argparseref.py` keeps as the oracle. Each form of the README's
grammar is pinned in PINNED with the reading it must have: the values it is
accepted with, a refusal or help. For each drawn argv, the parser and the
oracle agree: both accept it with equal values, both refuse it, or both show
help. Argvs are drawn from the commands and unknown words, integers
(negative ones too) and other text, and every option of every command: full
flags and their prefixes, `--flag=value` forms, repeats, `--`, `-h` and
`--help`, with each argv of PINNED as an example.

argparse's reading of edge cases (the `--` word, prefixes, runs such as
`-hx`) has changed between Python releases, so the comparison with the
oracle runs on the release it was checked against, Python 3.11; PINNED
holds the grammar on every release.

Two readings differ from argparse's on purpose, and `oracle` applies them to
its result. An argv with the word "--" is refused: argparse dropped it or
read the words after it as values, which lets no argv through that cannot
be written without it. A value that is exactly "--" (after "=") is read as
written: argparse stored an empty list, which no command can take (the
command crashed, or `--json=--` wrote to stdout), so it is refused where an
integer is due. A third difference is not drawn: combined short flags
(`-hh`, `-h=h`), which argparse read as help, are refused.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import _argparseref
from quadcert.cli import _parse, main
from quadcert.errors import UsageError

# the number of positionals and the flags of each command (tests/_argparseref.py)
GRAMMAR = {
    "check": (2, ["--degree", "--json"]),
    "solve": (2, ["--json"]),
    "construct": (2, ["--json"]),
    "sample": (1, ["--field", "--seed", "--max-tries", "--json"]),
    "borel-check": (1, ["--field", "--seed", "--samples", "--json"]),
    "certify": (2, ["--field-degree", "--samples", "--seed", "--max-tries", "--control", "--json"]),
}
COMMANDS = tuple(GRAMMAR)
FLAGS = sorted({flag for _, flags in GRAMMAR.values() for flag in flags} | {"--help"})
SEED_END = str(2**64)

# the defaults of each command's options other than --json (None) and the
# required --field
DEFAULTS = {
    "check": {"degree": 1},
    "solve": {},
    "construct": {},
    "sample": {"seed": 0, "max_tries": None},
    "borel-check": {"seed": 0, "samples": 20},
    "certify": {"field_degree": 1, "samples": 20, "seed": 0, "max_tries": None, "control": False},
}
REFUSED, HELP = ("refused",), ("help",)


def accepted(command, **values) -> tuple:
    return ("values", {"command": command, "json": None} | DEFAULTS[command] | values)


PINNED = [
    ([], REFUSED),
    (["frobnicate"], REFUSED),
    (["check", "15", "3"], accepted("check", n=15, p=3)),
    (["solve", "15", "3", "--json", "out.json"], accepted("solve", n=15, p=3, json="out.json")),
    # options anywhere after the command
    (["certify", "--samples", "2", "15", "3"], accepted("certify", n=15, p=3, samples=2)),
    (["certify", "15", "--seed", "4", "3", "--control"], accepted("certify", n=15, p=3, seed=4, control=True)),
    # a value as the next word or after "="
    (["check", "15", "3", "--degree=2"], accepted("check", n=15, p=3, degree=2)),
    (["sample", "5", "--field=3^4", "--seed=7"], accepted("sample", n=5, field="3^4", seed=7)),
    # a unique prefix names an option, an ambiguous one is refused
    (["certify", "15", "3", "--field-deg", "4"], accepted("certify", n=15, p=3, field_degree=4)),
    (["certify", "15", "3", "--con"], accepted("certify", n=15, p=3, control=True)),
    (["certify", "15", "3", "--s", "4"], REFUSED),  # --samples or --seed
    (["certify", "15", "3", "--s=4"], REFUSED),
    # the last of a repeated option wins
    (["check", "15", "3", "--degree", "2", "--degree", "3"], accepted("check", n=15, p=3, degree=3)),
    (["sample", "5", "--field", "3", "--field", "11"], accepted("sample", n=5, field="11")),
    (["certify", "15", "3", "--control", "--control"], accepted("certify", n=15, p=3, control=True)),
    # negative numbers are values, any other dash word is an option
    (["check", "-2", "3"], accepted("check", n=-2, p=3)),
    (["check", "15", "3", "--degree", "-1"], accepted("check", n=15, p=3, degree=-1)),
    (["sample", "5", "--field", "-1.5"], accepted("sample", n=5, field="-1.5")),
    (["sample", "5", "--field", "-x"], REFUSED),
    # the converters' ranges
    (["certify", "15", "3", "--seed", "-1"], REFUSED),
    (["certify", "15", "3", "--seed", SEED_END], REFUSED),
    (["certify", "15", "3", "--samples", "0"], REFUSED),
    (["check", "four", "3"], REFUSED),
    # a flag takes no value
    (["certify", "15", "3", "--control=1"], REFUSED),
    # unknown options, extra or missing values, the word "--"
    (["check", "15", "3", "--bogus"], REFUSED),
    (["check", "15", "3", "4"], REFUSED),
    (["check", "15"], REFUSED),
    (["sample", "5"], REFUSED),
    (["check", "--", "15", "3"], REFUSED),
    (["check", "15", "3", "--"], REFUSED),
    (["--", "check", "15", "3"], REFUSED),
    (["check", "-h", "--"], REFUSED),
    # a value "--" is read as written
    (["sample", "5", "--field=--"], accepted("sample", n=5, field="--")),
    (["check", "15", "3", "--degree=--"], REFUSED),
    # help, before a command or after it
    (["-h"], HELP),
    (["--help"], HELP),
    (["--he"], HELP),
    (["--help=x"], REFUSED),
    (["check", "-h"], HELP),
    (["certify", "15", "3", "--help"], HELP),
    (["check", "-h", "four"], HELP),
    (["--bogus", "check", "15", "3", "-h"], HELP),  # an unknown word before help
    (["--bogus", "check", "15", "3"], REFUSED),
    (["check", "four", "3", "-h"], REFUSED),  # a bad value before help
    (["certify", "-h", "--s"], REFUSED),  # an ambiguous prefix anywhere
    (["check", "15", "3", "-hx"], REFUSED),
]

# the oracle's reading of edge cases is that of Python 3.11's argparse
argparse_3_11 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the oracle was checked against Python 3.11's argparse"
)


def parse(argv) -> tuple:
    """("values", the parsed values), REFUSED or HELP, as
    `_argparseref.parse` reports the oracle's reading."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            values = _parse(list(argv))
        except UsageError:
            return REFUSED
    return HELP if values is None else ("values", values)


def oracle(argv) -> tuple:
    """`_argparseref.parse(argv)`, with a word "--" refused and each value
    "--" read as written."""
    if "--" in argv:
        return REFUSED
    result = _argparseref.parse(argv)
    dashed = {dest for dest, value in result[1].items() if value == []} if result[0] == "values" else set()
    if dashed - {"field", "json"}:
        return REFUSED
    return ("values", result[1] | dict.fromkeys(dashed, "--")) if dashed else result


@pytest.mark.parametrize("argv, expected", PINNED)
def test_pinned_argv_reads_as_the_grammar_says(argv, expected):
    assert parse(argv) == expected


NUMBERS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["0", SEED_END, str(2**64 - 1), str(-(2**64))]))
VALUES = st.one_of(
    NUMBERS,
    st.sampled_from(["3^4", "11", "7"]),
    st.sampled_from(["four", "1.5", "-1.5", "-.5", "", " 7", "-", "- x", "x", "--"]),
)
# a flag of any command, a prefix of one (unique or not), or no flag at all
FLAG = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).flatmap(lambda flag: st.integers(2, len(flag)).map(lambda k: flag[:k])),
    st.sampled_from(["-h", "--bogus", "-x", "---x"]),
)
OTHER = st.one_of(VALUES, st.sampled_from(["--", "-h", "--help", "--he", "--bogus", "--help=x", "frobnicate"]))


def sometimes(draw, one_in: int) -> bool:
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


@st.composite
def options(draw, flags) -> list[str]:
    """One of `flags` (or now and then any flag) with its value, as one "="
    word, or alone."""
    flag = draw(FLAG) if sometimes(draw, 4) else draw(st.sampled_from(flags))
    value = draw(VALUES) if sometimes(draw, 3) else str(draw(st.integers(1, 40)))
    return draw(st.sampled_from([[flag, value], [flag, value], [f"{flag}={value}"], [flag]]))


@st.composite
def argvs(draw):
    """A command (or another word) with about its number of values and some
    of its options, in any order; now and then another word among them or
    before the command."""
    command = draw(st.sampled_from(["frobnicate", "Check", ""])) if sometimes(draw, 10) else draw(st.sampled_from(COMMANDS))
    count, flags = GRAMMAR.get(command, (2, list(FLAGS)))
    count = draw(st.sampled_from([count, count, count, count - 1, count + 1]))
    groups = [[value] for value in draw(st.lists(NUMBERS, min_size=count, max_size=count))]
    if "--field" in flags and not sometimes(draw, 8):
        groups.append(["--field", draw(st.sampled_from(["11", "3^4", "31"]))])
    groups += draw(st.lists(options(flags), max_size=3))
    groups += [[draw(OTHER)]] if sometimes(draw, 4) else []
    head = [draw(OTHER)] if sometimes(draw, 8) else []
    return head + [command] + [word for group in draw(st.permutations(groups)) for word in group]


def pinned_examples(test):
    """`test` with each argv of PINNED as an example."""
    for argv, _ in PINNED:
        test = example(argv)(test)
    return test


@argparse_3_11
@settings(max_examples=600, derandomize=True, deadline=None)
@pinned_examples
@given(argvs())
def test_parser_reads_argv_as_argparse_did(argv):
    assert parse(argv) == oracle(argv), argv


def test_two_dashes_as_a_word_or_a_value(capsys):
    assert parse(["sample", "5", "--field=--"])[1]["field"] == "--"
    # refused where an integer or a field is due, as is the word "--"
    for argv in (["check", "15", "3", "--degree=--"], ["sample", "5", "--field=--"], ["check", "15", "3", "--"]):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"quadcert {argv[0]}: error: ") and err.count("\n") == 1
