"""The command-line examples in ``README.md`` print what they show.

Each ``$ dlaplace ...`` line inside a fenced block is run through
``cli.main`` in process, its argv split as a shell would and a trailing
``# ...`` comment dropped.  The lines that follow it, up to the next
example or the end of the block, are its output: they must appear in
stdout in order and one after another, from the first line of stdout to
the last, except that a ``...`` line stands for any number of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from dlaplace.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ dlaplace "


def examples(text):
    """(command line, the output lines shown) for each example."""
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith(PROMPT):
                shown = []
                found.append((line, shown))
            elif shown is not None:
                shown.append(line)
    return found


def matches(shown, lines):
    """True when lines is shown with each ``...`` standing for any run of
    lines, possibly empty."""
    if not shown:
        return not lines
    if shown[0] == "...":
        return any(matches(shown[1:], lines[i:])
                   for i in range(len(lines) + 1))
    return bool(lines) and lines[0] == shown[0] and matches(shown[1:],
                                                             lines[1:])


CASES = examples(README.read_text(encoding="utf-8"))


def test_the_readme_has_examples():
    assert len(CASES) >= 3


@pytest.mark.parametrize("command, shown", CASES,
                         ids=[command.split()[2] for command, _ in CASES])
def test_readme_example_prints_what_it_shows(command, shown, capsys):
    argv = shlex.split(command[len(PROMPT):], comments=True)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert matches(shown, out.splitlines()), out


def test_matches_reads_an_ellipsis_as_any_run_of_lines():
    assert matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert matches(["a", "..."], ["a"])
    assert not matches(["a", "c"], ["a", "b", "c"])
    assert not matches(["a"], ["a", "b"])
    assert not matches(["b", "..."], ["a", "b"])
