"""The CLI's table parser against the argparse specification it replaced.

tests/parser_helpers.py keeps that specification as the reference.  On
every argv below both parsers give the same namespace, or both exit 2
with nothing on stdout.  Help and usage errors are checked on their own.
"""

import io
import json
from pathlib import Path

import pytest

import blowupgate.cli as cli

from parser_helpers import parse, reference_parser

DATA = Path(__file__).with_name("data")


def corpus_argv():
    """Every argv of both golden corpora, with a file name for {input},
    each once."""
    out = set()
    for name in ("cli_exact_golden.jsonl", "cli_numeric_golden.jsonl"):
        with open(DATA / name, encoding="utf-8") as fh:
            out.update(tuple(a.replace("{input}", "in.json") for a in
                             json.loads(line)["argv"])
                       for line in fh if line.strip())
    return [list(argv) for argv in sorted(out)]


BENCHMARK = [
    ["invariants", "links/l3.json"],
    ["gate", "links/l3.json", "--monodromy", "1,0,1"],
    ["solve", "pres_surface2.json", "--restarts", "4", "--seed", "123456"],
    ["euler", "rep0.json", "--genus", "2"],
    ["brieskorn", "2", "3", "7", "--restarts", "2", "--seed", "99"],
]

FORMS = [
    # options before, between and after positionals
    ["brieskorn", "--tol", "1e-9", "2", "3", "7"],
    ["brieskorn", "2", "--seed", "5", "3", "7"],
    ["brieskorn", "2", "3", "--restarts", "4", "7", "--tol", "1e-8"],
    ["solve", "--seed", "3", "p.json"],
    ["gate", "--monodromy", "1", "l.json"],
    # --opt=value
    ["solve", "p.json", "--seed=4", "--tol=1e-3"],
    ["gate", "l.json", "--monodromy=1,0"],
    ["gate", "l.json", "--monodromy="],
    ["--format=text", "mw-admissible", "--genera=2,3"],
    # a repeated option: the last value wins
    ["solve", "p.json", "--seed", "1", "--seed", "2"],
    ["--format", "text", "--format", "json", "flow", "g.json"],
    # unique prefixes
    ["brieskorn", "2", "3", "7", "--rest", "3"],
    ["solve", "p.json", "--s", "9", "--t", "0.5", "--r=3"],
    ["--form", "text", "invariants", "l.json"],
    ["mw-admissible", "--gen", "2"],
    ["euler", "r.json", "--g", "3"],
    # --format before and after the subcommand
    ["--format", "text", "brieskorn", "2", "3", "7"],
    ["brieskorn", "2", "3", "7", "--format", "text"],
    ["invariants", "--format", "json", "l.json"],
    # negative numbers are values
    ["solve", "p.json", "--seed", "-3"],
    ["solve", "p.json", "--tol", "-.5"],
    ["brieskorn", "2", "3", "-5"],
    ["brieskorn", "-2", "-3", "-5"],
    ["euler", "r.json", "--genus", "-1"],
    ["solve", "p.json", "--tol", "-inf"],
    ["brieskorn", "2", "3", "-1e5"],
    # "--" ends the options; "-" and "" are positionals
    ["invariants", "--", "l.json"],
    ["invariants", "--", "-l.json"],
    ["solve", "--", "p.json", "--seed", "3"],
    ["invariants", "-"],
    ["invariants", ""],
]

USAGE_ERRORS = [
    [], ["--format", "text"], ["not-a-command"], ["Invariants", "l.json"],
    ["invariant", "l.json"], ["-x"], ["--bogus", "flow", "g.json"],
    ["--format", "xml", "flow", "g.json"], ["--seed", "3", "solve", "p.json"],
    ["solve", "p.json", "--bogus", "1"], ["solve", "p.json", "-s", "3"],
    ["invariants"], ["invariants", "a.json", "b.json"],
    ["brieskorn", "2", "3"], ["brieskorn", "2", "3", "7", "8"],
    ["brieskorn", "2", "x", "7"], ["brieskorn", "2", "3", "7.0"],
    ["solve", "p.json", "--tol", "abc"], ["solve", "p.json", "--seed", "1.5"],
    ["solve", "p.json", "--seed"], ["gate", "l.json", "--monodromy"],
    ["gate", "l.json", "--monodromy", "--format"],
    ["gate", "l.json", "--monodromy", "--"],
    ["mw-admissible"], ["mw-admissible", "--genera"],
    ["euler", "--genus", "2"],
]


@pytest.mark.parametrize("argv", corpus_argv() + BENCHMARK + FORMS
                         + USAGE_ERRORS)
def test_table_parser_matches_argparse(argv):
    code, fields, out, _ = parse(cli._PARSER, argv)
    ref_code, ref_fields, ref_out, _ = parse(reference_parser(), argv)
    assert (code, fields) == (ref_code, ref_fields)
    assert code in (0, 2) and out == ref_out == ""


@pytest.mark.parametrize("value", ["-1e-5", "-1."])
def test_a_negative_number_in_exponent_form_is_a_value(value):
    """"-" and a digit starts a number.  argparse on Python 3.11 takes
    -1e-5 and -1. for options and refuses them; later releases read them
    as numbers too."""
    argv = ["solve", "p.json", "--tol", value]
    code, fields, _, _ = parse(cli._PARSER, argv)
    assert code == 0 and fields["tol"] == float(value)
    ref_code, ref_fields, _, _ = parse(reference_parser(), argv)
    assert ref_code == 2 or ref_fields == fields


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"],
                                  ["--format", "text", "-h"]])
def test_top_level_help_lists_every_command(argv):
    code, fields, out, err = parse(cli._PARSER, argv)
    assert (code, fields, err) == (0, None, "")
    assert out.startswith("usage: blowupgate ")
    assert "--format {json,text}" in out
    assert all(name in out for name in cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_subcommand_help_lists_its_table_row(command, capsys):
    buf = io.StringIO()
    assert cli.run([command, "-h"], out=buf) == 0
    out, err = capsys.readouterr()
    assert buf.getvalue() == err == ""
    assert out.startswith(f"usage: blowupgate {command} [-h]")
    _, about, positionals, options = cli._COMMANDS[command]
    assert about in out
    assert all(dest in out for dest, _, _ in positionals)
    assert all(f"--{dest} " in out for dest, *_ in options)


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_writes_usage_and_error_to_stderr(argv, capsys):
    buf = io.StringIO()
    assert cli.run(argv, out=buf) == 2
    out, err = capsys.readouterr()
    assert buf.getvalue() == out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: blowupgate")
    assert error.startswith("blowupgate") and ": error: " in error
