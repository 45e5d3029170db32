"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

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
