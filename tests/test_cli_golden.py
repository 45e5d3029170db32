"""Replay recorded CLI invocations and require byte-identical output.

`cli_golden.json` holds, for each command below, the exit code, stdout and
stderr that `quiverdt` printed when the file was recorded.  Paths are
relative to the repository root, which the replay runs from.  To record
again after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import quiverdt.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

COMMANDS = [
    # every stock quiver
    "universal quivers/jordan.json -N 4",
    "universal quivers/point.json -N 3 --format pretty",
    "universal quivers/two_loops.json -N 3",
    "universal quivers/kronecker.json -N 3",
    "universal quivers/c3.json -N 3",
    "universal quivers/conifold.json -N 3 --format pretty",
    # every subcommand
    "hn quivers/kronecker.json --theta 1,0 -N 4",
    "hn quivers/conifold.json --theta 1,0 -N 3 --format pretty",
    "hn quivers/two_loops.json -N 3",
    "walls quivers/kronecker.json --theta 1,0 --alpha 2,1",
    "walls quivers/jordan.json --alpha 3",
    "ncdt quivers/c3.json -N 5 --euler",
    "ncdt quivers/c3.json -N 4",
    "ncdt quivers/conifold.json -N 4",
    "ncdt quivers/jordan.json -N 3",
    "ncdt quivers/two_loops.json -N 3",
    "ncdt quivers/kronecker.json -N 3",
    "ncdt quivers/point.json -N 3 --euler",
    "framed quivers/kronecker.json --theta 1,0 --c 1/2 --mu 1/2 -N 4",
    "framed quivers/kronecker.json --theta 1,0 --c 1/2 --side + --mu 1/2 -N 4",
    "framed quivers/kronecker.json --theta 1,0 --c 1/2 --side - --mu 1/2 -N 4",
    "framed quivers/kronecker.json --theta 1,0 --c +inf -N 4",
    "framed quivers/kronecker.json --c -inf -N 3",
    "framed quivers/conifold.json --theta 1,0 --c 1/2 --side - --mu 1/2 -N 4",
    "framed quivers/conifold.json --c +inf -N 4 --euler",
    "framed quivers/jordan.json --c 1 --side + --mu 0 -N 3",
    "framed quivers/jordan.json --theta -1/2 --c -1/2 --side + --mu -1/2 -N 3",
    "framed quivers/two_loops.json --c -1 --side - --mu 0 -N 3 --w 2",
    "smooth-model quivers/kronecker.json --theta 1,0 --mu 1/2 -N 3",
    "smooth-model quivers/conifold.json --theta 1,0 --mu 1/2 -N 4",
    "omega quivers/conifold.json -N 3",
    "omega quivers/conifold.json -N 2 --euler",
    "omega quivers/kronecker.json --theta 1,0 --mu 1/2 -N 4",
    "omega quivers/c3.json -N 4",
    "omega quivers/c3.json -N 3 --format pretty",
    "transfer quivers/jordan.json -N 4",
    "transfer quivers/conifold.json -N 4",
    "transfer quivers/conifold.json --theta 1,0 --mu 1/2 -N 4",
    "transfer quivers/c3.json -N 3 --format pretty",
    "check-oracle quivers/jordan.json --max-dim 2 --theta 0 --c 0",
    "check-oracle quivers/kronecker.json --q 2 --max-dim 2 --theta -1,0 --c -3/2",
    "check-oracle quivers/two_loops.json --max-dim 2",
    "check-oracle quivers/point.json --q 3 --max-dim 3 --theta 0 --c 0",
    "check-oracle quivers/jordan.json --q 3 --max-dim 3 --theta 0 --c 0",
    # refusals and bad input
    "check-oracle quivers/c3.json",
    "transfer quivers/kronecker.json -N 3",
    "omega quivers/kronecker.json -N 3",
    "universal quivers/jordan.json --euler",
    "framed quivers/jordan.json --c 0.5",
    "framed quivers/jordan.json --mu 0",
    "universal quivers/absent.json",
    "ncdt quivers/jordan.json --w 1,1",
    "walls quivers/kronecker.json --alpha 1",
]


def replay(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_byte_identical(command, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert replay(command) == golden[command]


if __name__ == "__main__":
    os.chdir(ROOT)
    record = {command: replay(command) for command in COMMANDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
