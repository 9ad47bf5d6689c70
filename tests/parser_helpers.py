"""The argparse specification that blowupgate.cli used before its table
parser, kept as the reference the parser is checked against.

reference_parser() builds it; parse(parser, argv) runs either parser on
argv and returns (exit code, namespace fields or None, stdout, stderr).
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowupgate",
        description="Link obstruction gate and PSL(2,R) representation explorer")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Alexander polynomial, determinant, "
                       "branched double cover homology")
    p.add_argument("link", help="link JSON file")
    p.set_defaults(handler="_cmd_invariants")

    p = sub.add_parser("gate", help="obstruction verdict for a labeled link")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--monodromy", help="comma-separated 0/1 per component")
    p.set_defaults(handler="_cmd_gate")

    p = sub.add_parser("flow", help="conservation check and homology class "
                       "of a weighted graph")
    p.add_argument("graph", help="flow graph JSON file")
    p.set_defaults(handler="_cmd_flow")

    p = sub.add_parser("solve", help="search PSL(2,R) representations")
    p.add_argument("presentation", help="presentation JSON file")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler="_cmd_solve")

    p = sub.add_parser("brieskorn", help="representation census of a "
                       "Brieskorn homology sphere")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--restarts", type=int, default=60,
                   help="ignored: the census is solved in closed form")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: the census is solved in closed form")
    p.set_defaults(handler="_cmd_brieskorn")

    p = sub.add_parser("euler", help="Euler number of a surface-group "
                       "representation")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler="_cmd_euler")

    p = sub.add_parser("mw-admissible", help="integer classes allowed by the "
                       "Milnor-Wood bound")
    p.add_argument("--genera", required=True, help="comma-separated genera")
    p.set_defaults(handler="_cmd_mw")

    return parser


def parse(parser, argv):
    """(exit code, vars of the namespace or None, stdout, stderr) of
    parser.parse_args(argv); the code is 0 for a namespace."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            fields, code = vars(parser.parse_args(argv)), 0
        except SystemExit as exc:
            fields, code = None, exc.code
    return code, fields, out.getvalue(), err.getvalue()
