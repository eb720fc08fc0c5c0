"""Byte identity of the CLI, command by command.

`byte_identity.json` holds a command list generated from a seed, each
command with the SHA-256 of its stdout, stderr and exit code, run in
process. The tests regenerate the list and recompute every hash, so a
change that is meant to keep the output keeps it byte for byte, exit
codes included. A change that moves output on purpose rewrites the file
in the same diff, which then names exactly the commands whose bytes
moved:

    PYTHONPATH=src python tests/test_byte_identity.py --write

The readable golden pins of `test_cli.py` show what changed; this file
shows where.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from monodom.cli import COMMANDS, main
from monodom.verify import FuzzParams, random_ideal

from conftest import I, complete_ideal, cycle_ideal, path_ideal, rp2_ideal

MANIFEST = Path(__file__).with_name("byte_identity.json")
SEED = 26
DRAWS = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=200, seed=SEED)
FIELDS = ([], ["--field", "fp", "--prime", "2"], ["--field", "fp", "--prime", "3"])
PER_IDEAL = (
    ["analyze", "--json"],
    ["analyze"],
    ["betti", "--oracle", "--json"],
    ["resolution", "--show-matrices"],
    ["resolution", "--show-matrices", "--json"],
    ["betti"],
    ["scarf"],
    ["scarf", "--json"],
)
# commands that take no --field, run once per ideal
FIELD_FREE = (
    ["odom"],
    ["odom", "--json"],
    ["nets"],
    ["nets", "--json"],
    ["nets", "--polarized"],
    ["nets", "--polarized", "--json"],
    ["polarize"],
    ["polarize", "--json"],
)
NAMED = (
    path_ideal(8),
    path_ideal(10),
    cycle_ideal(4),
    rp2_ideal(),
    complete_ideal(5),
    # x's and y's exponents 1..11 take fields of 11 code bits, which
    # straddle the byte windows multidegrees are spelled in
    I(", ".join(f"x^{e}*y^{12 - e}" for e in range(11, 0, -1))),
    # two-digit exponents on three variables
    I("x^12*y^10, x^10*z^11, y^11*z^13, x^11*y^11*z^10, x^13*z^10"),
)
OTHER = (
    ["verify", "--trials", "1000", "--seed", "42", "--json"],
    # a negative seed, whose 600 trials cross a block of the master stream
    ["verify", "--trials", "600", "--seed", "-1", "--json"],
    ["verify", "--exhaustive", "--n-max", "2", "--exp-max", "2", "--q-max", "8", "--json"],
    ["verify", "--exhaustive", "--n-max", "4", "--exp-max", "1", "--q-max", "5", "--json"],
    # the guard and error paths: past TAYLOR_GUARD, a syntax error, an
    # unknown variable
    ["analyze", "--ideal", path_ideal(15).render()],
    ["analyze", "--ideal", "a^^2"],
    ["analyze", "--ideal", "a*z", "--vars", "a,b"],
    # the argparse paths: no command, the help of the program and of each
    # command, an unknown and a misspelled command, an unknown option,
    # three ill-typed values and an option its command does not take
    [],
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    ["frobnicate"],
    ["analyz"],
    ["analyze", "--bogus"],
    ["betti", "--field", "xx"],
    ["odom", "--method", "neither"],
    ["verify", "--trials", "x"],
    ["odom", "--field", "fp", "--ideal", "a"],
)


def commands() -> list[list[str]]:
    """The seeded draws (distinct ones, in draw order), then the named
    ideals, each under every command of PER_IDEAL over every field and
    then under every command of FIELD_FREE; then the commands of OTHER."""
    ideals = {}
    for t in range(DRAWS.trials):
        M = random_ideal(DRAWS, t)
        ideals.setdefault((M.render(), M.table.names), M)
    for M in NAMED:
        ideals.setdefault((M.render(), M.table.names), M)
    out = []
    for text, names in ideals:
        given = ["--ideal", text, "--vars", ",".join(names)]
        for command in PER_IDEAL:
            for field in FIELDS:
                out.append([*command, *field, *given])
        for command in FIELD_FREE:
            out.append([*command, *given])
    return out + [list(argv) for argv in OTHER]


def digest(argv: list[str]) -> str:
    """SHA-256 of the JSON list [stdout, stderr, exit code] of one command.

    argparse wraps its usage and help to the terminal's width, which it
    reads from COLUMNS, so the command runs at 80 columns whatever the
    terminal; COLUMNS is restored afterwards.
    """
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return hashlib.sha256(
        json.dumps([out.getvalue(), err.getvalue(), code]).encode()
    ).hexdigest()


def load() -> list[tuple[str, list[str]]]:
    return [tuple(entry) for entry in json.loads(MANIFEST.read_text())["commands"]]


def write() -> None:
    lines = [json.dumps([digest(argv), argv]) for argv in commands()]
    MANIFEST.write_text(
        f'{{"seed": {SEED}, "commands": [\n' + ",\n".join(lines) + "\n]}\n"
    )


def test_command_list_is_the_seeded_one():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["seed"] == SEED
    assert [argv for _, argv in load()] == commands()


def test_every_command_hashes_as_committed():
    changed = [argv for expected, argv in load() if digest(argv) != expected]
    assert not changed, f"{len(changed)} commands changed, the first: {changed[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_byte_identity.py --write")
    write()
