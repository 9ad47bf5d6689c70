"""Replay of the numerical CLI against a golden corpus, with tolerances.

tests/data/cli_numeric_golden.jsonl holds one JSON object per line: the
argv (with "{input}" standing for the input file), the input JSON (null
when the command reads none), the exit code and the parsed stdout.  The
cases are `brieskorn` on the 44 pairwise coprime triples from
{2, 3, 4, 5, 7, 9, 11, 13}, `euler` on fuchsian_genus2() and fixed
conjugates of it, `solve --restarts 4` on seven groups and the three
edge presentations of presentation_helpers with seeds 0-5, and one
exit-1 case for each error code these commands reach.

Integers, strings, booleans and null must match exactly.  Floats must
agree to 1e-9 relative; a difference below 1e-15, the last digit that
matrix entries are printed with, also passes, so residuals near 1e-30
and entries that round to zero do not depend on the last bits of libm.
The package sums floats left to right on every Python version, so
every record, `solve` included, is compared this way everywhere.

The module needs only the standard library and the package, so the
replay also runs without pytest:
`PYTHONPATH=src:tests python -c "import test_cli_numeric_golden as t;
t.test_numeric_cli_matches_golden()"`.

After a deliberate output change, rebuild the file with
`PYTHONPATH=src python tests/test_cli_numeric_golden.py` and state the
change.
"""

import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from presentation_helpers import EDGE_GROUPS

from blowupgate.cli import run
from blowupgate.links import BraidWord, from_braid, wirtinger
from blowupgate.psl2r import fuchsian_genus2, mat_inv, mat_mul, rotation
from blowupgate.repvar import (BrieskornData, brieskorn_presentation,
                               free_product, surface_presentation,
                               surface_times_circle_presentation)

GOLDEN = Path(__file__).with_name("data") / "cli_numeric_golden.jsonl"
REL_TOL = 1e-9
ABS_TOL = 1e-15

SOLVE_GROUPS = [
    surface_presentation(1),
    surface_presentation(2),
    surface_times_circle_presentation(1),
    free_product(surface_presentation(1), surface_presentation(1)),
    wirtinger(from_braid(BraidWord(2, (1, 1, 1)))),
    wirtinger(from_braid(BraidWord(3, (1, -2, 1, -2)))),
    brieskorn_presentation(BrieskornData(2, 3, 7)),
    *EDGE_GROUPS.values(),
]

# conjugators of the Fuchsian representation; None keeps it as it is
EULER_CONJUGATORS = [None, rotation(0.7), (3.0, 0.0, 0.0, 1.0 / 3.0),
                     mat_mul(rotation(2.0), (1.0, 0.5, 0.0, 1.0)),
                     mat_mul((0.5, 0.0, 0.0, 2.0), rotation(-1.3))]

NOT_COMMUTING = {"matrices": {"a1": [[2.0, 0.0], [0.0, 0.5]],
                              "b1": [[1.0, 0.0], [1.0, 1.0]]}}
ERROR_CASES = [
    (["solve", "{input}"], {"generators": ["a", "a"], "relators": [[1]]}),
    (["solve", "{input}", "--restarts", "0"],
     {"generators": ["x"], "relators": [[1]]}),
    (["brieskorn", "2", "3", "4"], None),
    (["brieskorn", "997", "1009", "1013"], None),
    (["brieskorn", "2", "3", "7", "--tol", "0"], None),
    (["brieskorn", "2", "3", "7", "--tol", "1e-30"], None),
    (["euler", "{input}"], [1, 2]),
    (["euler", "{input}", "--tol", "0"], NOT_COMMUTING),
    (["euler", "{input}"], NOT_COMMUTING),
    (["euler", "{input}", "--tol", "100"], NOT_COMMUTING),
    (["euler", "{input}", "--genus", "0"], NOT_COMMUTING),
]


def _run(argv, payload, workdir):
    if payload is not None:
        path = workdir / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(path) if a == "{input}" else a for a in argv]
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, json.loads(buf.getvalue())


def _coprime_triples():
    return [t for t in itertools.combinations((2, 3, 4, 5, 7, 9, 11, 13), 3)
            if all(math.gcd(a, b) == 1 for a, b in itertools.combinations(t, 2))]


def _cases():
    for triple in _coprime_triples():
        yield ["brieskorn", *map(str, triple)], None
    fuchsian = {k: m.tuple() for k, m in fuchsian_genus2().items()}
    for g in EULER_CONJUGATORS:
        mats = fuchsian if g is None else {
            k: mat_mul(mat_mul(g, m), mat_inv(g)) for k, m in fuchsian.items()}
        yield ["euler", "{input}"], {"matrices": {
            k: [[a, b], [c, d]] for k, (a, b, c, d) in mats.items()}}
    for pres in SOLVE_GROUPS:
        payload = {"generators": list(pres.generators),
                   "relators": [list(r) for r in pres.relators]}
        for seed in range(6):
            yield (["solve", "{input}", "--restarts", "4", "--seed", str(seed)],
                   payload)
    yield from ERROR_CASES


def _agree(expected, actual):
    """True when actual matches expected within the tolerances above."""
    if type(expected) is not type(actual):
        return False
    if isinstance(expected, float):
        return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(expected, dict):
        return (expected.keys() == actual.keys()
                and all(_agree(expected[k], actual[k]) for k in expected))
    if isinstance(expected, list):
        return (len(expected) == len(actual)
                and all(map(_agree, expected, actual)))
    return expected == actual


def test_numeric_cli_matches_golden(tmp_path=None):
    if tmp_path is None:        # called without pytest
        with tempfile.TemporaryDirectory() as tmp:
            return test_numeric_cli_matches_golden(Path(tmp))
    with GOLDEN.open(encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh]
    stored = [[case["argv"], case["input"]] for case in cases]
    assert _agree(stored, [[a, p] for a, p in _cases()])
    mismatched = []
    for case in cases:
        code, output = _run(case["argv"], case["input"], tmp_path)
        if not (code == case["exit"] and _agree(case["output"], output)):
            mismatched.append(case["argv"])
    assert mismatched == []


def test_agree_tolerances():
    assert _agree({"x": [1.0, 2]}, {"x": [1.0 + 1e-12, 2]})
    assert _agree(2.45e-30, 1.1e-30)
    assert not _agree(1.0, 1.0 + 1e-8)
    assert not _agree({"x": [1.0, 2]}, {"x": [1.0, 3]})
    assert not _agree([True], [1])
    assert not _agree([1], [1.0])
    assert not _agree({"a": 1}, {"b": 1})
    assert not _agree([1.0, "x"], [1.0])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, \
            GOLDEN.open("w", encoding="utf-8") as fh:
        for argv, payload in _cases():
            code, output = _run(argv, payload, Path(tmp))
            fh.write(json.dumps({"argv": argv, "input": payload, "exit": code,
                                 "output": output}, sort_keys=True) + "\n")
