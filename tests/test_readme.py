"""The README's library example runs and prints what its comments say, and
each `$ quiverdt ...` example prints the lines shown under it."""

import re
import shlex
from pathlib import Path

import pytest

from quiverdt import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PRINTED = [
    "[Fraction(0, 1), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), "
    "Fraction(3, 5), Fraction(2, 3), Fraction(1, 1)]",
    "(v^2+1)/(1)",
    "(v^2+1)/(1)",
]


def test_library_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == PRINTED


def cli_examples():
    """(command, printed lines) for each `$ quiverdt` line in a code block:
    the lines after it up to the next command or the block's end, trailing
    blank lines dropped."""
    examples, fenced, lines = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            lines = None
        elif fenced and line.startswith("$ "):
            lines = [] if line.startswith("$ quiverdt ") else None
            if lines is not None:
                examples.append((line[2:], lines))
        elif fenced and lines is not None:
            lines.append(line)
    for _, lines in examples:
        while lines and not lines[-1]:
            lines.pop()
    return examples


EXAMPLES = cli_examples()


def test_every_cli_example_is_found():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("command, lines", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(command, lines, capsys, monkeypatch):
    # the quiver paths in the examples are relative to the repository root
    monkeypatch.chdir(ROOT)
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == lines
