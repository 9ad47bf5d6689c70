"""Byte-for-byte replay of the exact-layer CLI against a golden corpus.

tests/data/cli_exact_golden.jsonl holds one JSON object per line: the
argv (with "{input}" standing for the input file), the input JSON (null
when the command reads none) and the exact stdout.  The commands are
`invariants` and `gate` (every 0/1 labelling) on the braid corpus as
braid JSON and as PD JSON, one `flow` graph and one `mw-admissible`.
`solve`, `brieskorn` and `euler` are left out: their floats depend on
the platform's libm, though not on the Python version, so
test_cli_numeric_golden.py replays them against
tests/data/cli_numeric_golden.jsonl with tolerances.

After a deliberate output change, rebuild the file with
`PYTHONPATH=src python tests/test_cli_golden.py` and state the change.
"""

import io
import itertools
import json
from pathlib import Path

from blowupgate.cli import run
from blowupgate.links import from_braid
from conftest import CORPUS
from test_cli import GRAPH

GOLDEN = Path(__file__).with_name("data") / "cli_exact_golden.jsonl"


def _run(argv, payload, workdir):
    if payload is not None:
        path = workdir / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(path) if a == "{input}" else a for a in argv]
    buf = io.StringIO()
    run(argv, out=buf)
    return buf.getvalue()


def test_cli_matches_golden(tmp_path):
    with GOLDEN.open(encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh]
    assert [(case["argv"], case["input"]) for case in cases] == list(_cases())
    mismatched = [case["argv"] for case in cases
                  if _run(case["argv"], case["input"], tmp_path)
                  != case["stdout"]]
    assert mismatched == []


def _cases():
    for _name, braid in CORPUS:
        diagram = from_braid(braid)
        inputs = [{"braid": {"strands": braid.strands,
                             "word": list(braid.word)}}]
        if not diagram.free_arcs:
            inputs.append({"pd": diagram.to_pd()})
        ncomp = len(diagram.components)
        for payload in inputs:
            yield ["invariants", "{input}"], payload
            for labels in itertools.product("01", repeat=ncomp):
                yield (["gate", "{input}", "--monodromy", ",".join(labels)],
                       payload)
    yield ["flow", "{input}"], GRAPH
    yield ["mw-admissible", "--genera", "2,3"], None


if __name__ == "__main__":
    import tempfile

    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, \
            GOLDEN.open("w", encoding="utf-8") as fh:
        for argv, payload in _cases():
            stdout = _run(argv, payload, Path(tmp))
            fh.write(json.dumps({"argv": argv, "input": payload,
                                 "stdout": stdout}, sort_keys=True) + "\n")
