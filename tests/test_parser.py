"""The command-line parser reads every argv as the README's grammar says,
and as argparse read it but for five stated differences.

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

Five readings differ from argparse's on purpose, and `oracle` applies them
to its result. An argv with the word "--" is refused: argparse dropped it or
read the words after it as values, which lets no argv through that cannot be
written without it. A word that is exactly "-h" or "--help" shows help
wherever it stands: argparse refused an argv with a bad word before it. An
option is its flag in full: argparse also took a prefix of a long flag
(`--field-deg`) when the command had one flag of that prefix, so what a
prefix meant hung on the command's other flags; the oracle reads with that
matching off. A value that is exactly "--" (after "=") is read as written:
argparse stored an empty list, which no command can take (the command
crashed, or `--json=--` wrote to stdout), so it is refused where an integer
is due. An integer has one spelling, `0|-?[1-9][0-9]*`: argparse's `int`
also read `1_5`, `+15`, `015`, ` 7`, a number with a final newline and
digits other than ASCII ones, and its negative-number matcher took `-1.5`,
`-0` and a minus before an Arabic-Indic digit as values, so an argv is
refused when argparse read a word as an integer, or took a word as a
negative number, that is spelled otherwise. A sixth difference is not
drawn: combined short flags (`-hh`, `-h=h`), which argparse read as help,
are refused.
"""

import contextlib
import io
import re
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
INTEGER = re.compile("0|-?[1-9][0-9]*")  # the one spelling of an integer

# an integer spelled otherwise, each refused
MISSPELLED = [
    ["check", "1_5", "3"],
    ["check", "+15", "3"],
    ["check", "\u0661\u0665", "3"],  # Arabic-Indic digits
    ["check", "15\n", "3"],
    ["check", "015", "3"],
    ["check", "-0", "3"],
    ["certify", "15", "3", "--seed", "1_0"],
    ["check", "1" * 5000, "3"],  # more digits than int() reads
    ["sample", "5", "--field", "-\u0661"],  # no negative integer, so no value
]


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
    # an option is its flag in full: a prefix of one is an unknown option,
    # whether one flag of the command has that prefix or several
    (["certify", "15", "3", "--field-deg", "4"], REFUSED),
    (["certify", "15", "3", "--con"], REFUSED),
    (["certify", "15", "3", "--s", "4"], REFUSED),
    (["certify", "15", "3", "--s=4"], REFUSED),
    # the last of a repeated option wins
    (["check", "15", "3", "--degree", "2", "--degree", "3"], accepted("check", n=15, p=3, degree=3)),
    (["sample", "5", "--field", "3", "--field", "11"], accepted("sample", n=5, field="11")),
    (["certify", "15", "3", "--control", "--control"], accepted("certify", n=15, p=3, control=True)),
    # negative numbers are values, any other dash word is an option
    (["check", "-2", "3"], accepted("check", n=-2, p=3)),
    (["check", "15", "3", "--degree", "-1"], accepted("check", n=15, p=3, degree=-1)),
    (["sample", "5", "--field", "-1.5"], REFUSED),  # no integer, so no value
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
    (["--he"], REFUSED),  # a prefix of --help is no flag, and no command
    (["--help=x"], REFUSED),
    (["check", "-h"], HELP),
    (["certify", "15", "3", "--help"], HELP),
    (["check", "-h", "four"], HELP),
    (["--bogus", "check", "15", "3", "-h"], HELP),  # an unknown word before help
    (["--bogus", "check", "15", "3"], REFUSED),
    (["check", "four", "3", "-h"], HELP),  # a word -h shows help wherever it stands
    (["certify", "-h", "--s"], HELP),  # whatever else the argv holds
    (["check", "15", "3", "-hx"], REFUSED),
    # a next word that names an option is no value, even with a space in it
    (["certify", "15", "3", "--json", "--seed=1 x"], REFUSED),
] + [(argv, REFUSED) for argv in MISSPELLED]

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
    """`_argparseref.parse(argv)` with the five differences of the module
    docstring applied."""
    if "--" in argv:  # the word "--" is refused
        return REFUSED
    if "-h" in argv or "--help" in argv:  # help anywhere
        return HELP
    result = _argparseref.parse(argv)  # no prefixes
    # an integer has one spelling
    integers = result[2] if result[0] == "values" else ()
    negatives = filter(_argparseref.PARSER._negative_number_matcher.match, argv)
    if not all(map(INTEGER.fullmatch, (*integers, *negatives))):
        return REFUSED
    result = result[:2]
    # a value "--" is read as written
    dashed = {dest for dest, value in result[1].items() if value == []} if result[0] == "values" else set()
    if dashed - {"field", "json"}:
        return REFUSED
    return ("values", result[1] | dict.fromkeys(dashed, "--")) if dashed else result


@pytest.mark.parametrize("argv, expected", PINNED)
def test_pinned_argv_reads_as_the_grammar_says(argv, expected):
    assert parse(argv) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_no_prefix_of_a_flag_names_an_option(command):
    # each prefix of the command's flags that is no flag of its own, from
    # "--" and a letter up, is refused alone, before a value, with "=" and
    # as the value of --json
    count, flags = GRAMMAR[command]
    base = [command] + ["15"] * count + (["--field", "3^4"] if "--field" in flags else [])
    assert parse(base)[0] == "values"
    prefixes = {flag[:end] for flag in flags + ["--help"] for end in range(3, len(flag))} - set(flags)
    for prefix in sorted(prefixes):
        for words in ([prefix], [prefix, "4"], [f"{prefix}=4"], ["--json", prefix]):
            assert parse(base + words) == REFUSED, words


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


@pytest.mark.parametrize("argv", MISSPELLED)
def test_a_misspelled_integer_exits_4_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "doc.json"
    assert main(argv + ["--json", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"quadcert {argv[0]}: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_two_dashes_as_a_word_or_a_value(capsys):
    assert parse(["sample", "5", "--field=--"])[1]["field"] == "--"
    # refused where an integer or a field is due, as is the word "--"
    for argv in (["check", "15", "3", "--degree=--"], ["sample", "5", "--field=--"], ["check", "15", "3", "--"]):
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"quadcert {argv[0]}: error: ") and err.count("\n") == 1
