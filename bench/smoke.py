#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 bench/smoke.py

Runs every workload once per trace mode on a few inputs and asserts
that the last line printed names every metric of BENCHMARK.json with
its unit and no other, that nothing fails on the unmodified program,
that every traced run writes its spans as parseable JSON lines, and
that a corrupted output (a determinant off by one) is counted as a
failed operation.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SCALE = 0.1


def printed_result(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)], scale=SCALE)
    assert code == 0, (workload, trace, code)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_spans(path):
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans, path
    for idx, span in enumerate(spans):
        assert set(span) == {"name", "start", "end", "parent", "op", "note"}
        assert span["start"] <= span["end"] and span["parent"] < idx
        assert span["name"].split(".")[0] in {
            "cli", "links", "invariants", "gate", "exact", "repvar", "psl2r"}
    assert any(s["name"].startswith("cli.") for s in spans), path


def main():
    config = json.loads(run.CONFIG.read_text())
    names = [w["name"] for w in config["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in config[section]}
        for workload in names:
            result = printed_result(workload, trace)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, \
                (workload, trace, result)
            assert result["attempted"] >= 1
            if trace:
                check_spans(run.spans_path(workload, 0))
            print(f"ok  {workload:<12} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    corrupted = []

    def flip_det(op, text):
        if op.kind != "invariants":
            return text
        payload = json.loads(text)
        payload["det"] += 1
        corrupted.append(op)
        return json.dumps(payload)

    result = run.measure("braid-links", 0, 0.0, 0, scale=SCALE,
                         mutate=flip_det)
    assert corrupted and result["failed"] == len(corrupted), \
        (len(corrupted), result["failed"])
    assert not result["correct"]
    print(f"ok  flipped det: {result['failed']} of {result['attempted']} "
          "operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
