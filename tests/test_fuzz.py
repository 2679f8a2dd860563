"""Mutation fuzzing of every input syntax through the command line: each
fixture type and the --at text, edited a few times with tokens that the
parsers meet in hostile files, must end in exit 0, 1 or 2 with no exception
escaping main.  Runs in-process under the derandomized hypothesis profile
that conftest loads, so the examples are the same on every run."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono.cli import main
from conftest import FIXTURES

# Syntax characters and names, and hostile tokens: numbers in forms the
# strict readers reject (exponent notation, decimals, '_' separators,
# non-ASCII digits, a zero denominator, more digits than int() converts) and
# nesting deeper than the recursion limit.  A short token adds at most two
# digits to a number and the long digit string is past every limit, so no
# edit makes a valid count or exponent large enough to slow a run down.
SYNTAX = ["[", "]", "(", ")", ",", "-", "+", "^", "/", "*", "=", "#", " ", "\n",
          "g1", "g9", "x1", "y1", "x", "1", "-1", "0", "relator", "xi", "upsilon",
          "locus x1 = x2"]
HOSTILE = ["1e999999999", "0.5", "1_0", "\u0661", "1/0", "9" * 5000,
           "[" * 3000, "(" * 3000, "-" * 3000]

_FILE = {
    "arrangement": "pencil4.arr",
    "presentation": "pencil4.pres",
    "endomorphism": "pencil4_twist12.endo",
    "certificate": "pencil4_twist12.cert",
    "projection": "pencil4_proj_res.txt",
}
_PATH = {kind: str(FIXTURES / name) for kind, name in _FILE.items()}
_PEC = ["-p", _PATH["presentation"], "-e", _PATH["endomorphism"],
        "-c", _PATH["certificate"]]


def _argv(kind: str, path: str) -> list[str]:
    """The subcommand that reads a file of this kind, with path in its place."""
    p = dict(_PATH, **{kind: path})
    return {
        "arrangement": ["info", "-a", p["arrangement"]],
        "presentation": ["fox", "-p", p["presentation"]],
        "endomorphism": ["monodromy", "-p", p["presentation"], "-e", p["endomorphism"]],
        "certificate": ["connection", "-p", p["presentation"], "-e", p["endomorphism"],
                        "-c", p["certificate"]],
        "projection": ["induced", "-a", p["arrangement"], *_PEC, "--xi", p["projection"]],
    }[kind]


@st.composite
def mutations(draw, text: str) -> str:
    """text after one to three edits: a syntax or a hostile token inserted,
    a span deleted, or a line repeated."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("syntax", "hostile", "delete", "repeat")))
        if edit == "syntax":
            text = text[:i] + draw(st.sampled_from(SYNTAX)) + text[i:]
        elif edit == "hostile":
            text = text[:i] + draw(st.sampled_from(HOSTILE)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 12)):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[:j + 1] + lines[j:])
    return text


def _exit_code(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("kind", sorted(_FILE))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_file_ends_in_an_exit_code(tmp_path_factory, kind, data):
    text = data.draw(mutations((FIXTURES / _FILE[kind]).read_text()), label="text")
    path = tmp_path_factory.mktemp(kind) / _FILE[kind]
    path.write_text(text, encoding="utf-8")
    assert _exit_code(_argv(kind, str(path))) in (0, 1, 2)


@settings(max_examples=100)
@given(at=mutations("2,3,1/6,1"))
def test_mutated_point_ends_in_an_exit_code(at):
    assert _exit_code(["specialize", "-p", _PATH["presentation"], "--ring", "x",
                       f"--at={at}"]) in (0, 1, 2)
