#!/usr/bin/env python3
"""Benchmark of blowupgate, timed through its CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out RESULTS.jsonl]
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl
    python3 bench/smoke.py

Run from the repository root; the library is imported from ./src, and
nothing is installed or built.  One client runs a closed loop in this
process: every operation is ``blowupgate.cli.run(argv, out=buffer)``
on inputs written to files beforehand (see workloads.py), and the next
operation starts when the last one returns.  BLOWUPGATE_THREADS is
pinned to 1, so one core is busy.

--trace 0 prints the end-to-end metrics:

- setup_s: wall time of a fresh interpreter that imports
  blowupgate.cli.  Each of SETUP_REPEATS such starts (half before the
  timed loop, half after) follows a bare interpreter start, and its
  time is scaled by BARE_REF_S over that bare start's time; setup_s is
  the median.  The bare start gauges the host's speed for start-up
  work better than HostSpeed does: on a shared host the scaled figure
  spreads a third to a half as much as the kernel-scaled one.
- ops_per_s, op_p50_ms, op_p90_ms: the timed loop repeats the whole
  operation list (a pass) a fixed number of times, `--seconds` over
  the workload's pass time on the reference host and at least
  MIN_PASSES, so a run takes about `--seconds` there.  The count does
  not depend on the speed of the host or of the program, so neither
  changes how a latency is estimated: each operation's latency is the
  lower median of its repetitions (the fastest of two, the second
  fastest of three or four, ...).  ops_per_s is operations divided by
  the sum of those latencies, and the percentiles are over them (one
  sample per operation, at least 110 operations per workload).
  An operation repeats its argv and input files in every pass, so a
  cache kept across calls would serve the later passes while real
  traffic (one process per input) never repeats an input.  The run is
  therefore marked incorrect if repeat_speedup, the median over
  operations of the first pass's latency over the median of the later
  ones, exceeds REPEAT_SPEEDUP_LIMIT.  Without such a cache it is
  1.00 +- 0.04.
- peak_rss_mb: ru_maxrss of this process after the timed loop, before
  the output checks run.

All other times are scaled by the host's speed (see HostSpeed); the
unscaled figures are in the record.

--trace 1 runs one untraced and one traced pass over the same
operations and prints the per-layer metrics of tracer.py, the import
time of blowupgate.cli by -X importtime, the tracing overhead (traced
minus untraced operations per second, with scaled times) and
failed_frac; the per-layer times are not scaled.  The traced spans are
written as JSON lines to bench/.work/spans-WORKLOAD-SEED.jsonl.  Outputs of
every operation are checked after timing; a failed check, an exception
or a nonzero exit counts as a failed operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --out appends the full result (metrics,
sample counts and a record of the run) as one JSON line; --compare
reads two such files and prints a verdict per workload and metric
against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIG = ROOT / "BENCHMARK.json"
WORK = BENCH / ".work"

SETUP_REPEATS = 11
REPEAT_SPEEDUP_LIMIT = 1.5
MIN_PASSES = 2
CAL_EVERY_S = 0.05        # workload time between two speed samples
CAL_REF_S = 0.62e-3       # kernel time at full speed on the reference host
BARE_REF_S = 0.034        # bare interpreter start there


def _kernel():
    """Fixed interpreter work: dict, integer, float and tuple operations."""
    acc = {}
    x = 1.0
    for i in range(4000):
        key = (i * 7919) & 255
        acc[key] = acc.get(key, 0) + i * i
        x = (x * 1.000001 + 0.5) % 97.0
    return len(acc), x


class HostSpeed:
    """Speed of the host, sampled with a fixed stdlib kernel.

    On a shared host the same work takes up to twice as long for seconds
    or minutes at a time, and the fastest of a few repetitions does not
    remove that.  Every timed interval is multiplied by `factor()`: the
    kernel's reference time over the median of its last three samples,
    taken just before the interval.  Times are therefore in seconds of
    the reference host (a 2-vCPU VM with CPython 3.11, where the kernel
    takes CAL_REF_S at full speed); the raw times go to the record.
    """

    def __init__(self):
        self._recent = deque(maxlen=3)
        self._last = float("-inf")
        self.factors = []

    def sample(self):
        start = perf_counter()
        _kernel()
        self._last = perf_counter()
        self._recent.append(self._last - start)

    def tick(self):
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self):
        f = CAL_REF_S / statistics.median(self._recent)
        self.factors.append(f)
        return f


def _child(code):
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"]


def _wall(cmd):
    start = perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


def startup_times(repeats):
    """Fresh interpreters: [(import of blowupgate.cli, bare start)]."""
    out = []
    for _ in range(repeats):
        bare = _wall(_child("pass"))
        cli = _wall(_child("import blowupgate.cli"))
        out.append((cli, bare))
    return out


def import_ms(repeats):
    """Cumulative -X importtime of blowupgate.cli, in ms."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime",
             *_child("import blowupgate.cli")[1:]],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "blowupgate.cli":
                out.append(int(parts[1]) / 1000.0)
    return out


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def _lower_median(values):
    return sorted(values)[(len(values) - 1) // 2]


def spans_path(workload, seed):
    return WORK / f"spans-{workload}-{seed}.jsonl"


def measure(workload, seed, seconds, trace, scale=1.0, mutate=None):
    """Run one workload and return the full result as a dict.

    scale shrinks the inputs (the smoke test uses it); mutate(op, text)
    rewrites an output before it is checked.
    """
    os.environ["BLOWUPGATE_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = HostSpeed()
    if trace:
        imports = import_ms(5)
    else:
        # half of the start-ups before the timed loop, half after it
        starts = startup_times(SETUP_REPEATS // 2)

    import blowupgate.cli as cli
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"blowupgate imported from {cli.__file__}, not {SRC}")

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        wl = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir,
                                 scale)
        ops = wl.ops
        n = len(ops)
        outputs = [Counter() for _ in ops]
        tracer = Tracer()

        def execute(i):
            """Run operation i; return (scaled seconds, raw seconds, text)."""
            speed.tick()
            f = speed.factor()
            buf = io.StringIO()
            tracer.op = i
            start = perf_counter()
            try:
                code = cli.run(ops[i].argv, out=buf)
            except Exception as exc:  # counted as a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - start
            text = buf.getvalue()
            if mutate is not None:
                text = mutate(ops[i], text)
            outputs[i][(code, text)] += 1
            return dt * f, dt, text

        # warm-up: one operation of each kind, untimed
        kinds = set()
        for i, op in enumerate(ops):
            if op.kind not in kinds:
                kinds.add(op.kind)
                execute(i)

        digest = hashlib.sha256()
        scaled = [[] for _ in ops]
        unscaled = [[] for _ in ops]
        if trace:
            untraced = sum(execute(i)[0] for i in range(n))
            tracer.install()
            try:
                timed = [execute(i) for i in range(n)]
            finally:
                tracer.uninstall()
            traced = sum(t[0] for t in timed)
            tracer.write(spans_path(workload, seed))
        else:
            passes = max(MIN_PASSES, round(seconds / wl.pass_seconds))
            for p in range(passes):
                for i in range(n):
                    dt, raw, text = execute(i)
                    scaled[i].append(dt)
                    unscaled[i].append(raw)
                    if p == 0:
                        digest.update(text.encode())
            best = [_lower_median(s) for s in scaled]
            raw_best = [_lower_median(s) for s in unscaled]
            repeat_speedup = statistics.median(
                s[0] / statistics.median(s[1:]) for s in scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed = 0
        errors = Counter()
        for i, op in enumerate(ops):
            for (code, text), count in outputs[i].items():
                try:
                    if code != 0:
                        raise ValueError(f"exit code {code}")
                    wl.check(op, json.loads(text))
                except Exception as exc:  # any failure of the output
                    failed += count
                    errors[f"{op.kind}: {type(exc).__name__}: {exc}"] += count
        attempted = sum(sum(c.values()) for c in outputs)
        correct = failed == 0
        if not trace and repeat_speedup > REPEAT_SPEEDUP_LIMIT:
            correct = False
            errors[f"later passes {repeat_speedup:.2f}x faster than the "
                   "first: a cache kept across calls?"] += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ["BLOWUPGATE_THREADS"],
        "ops": dict(Counter(op.kind for op in ops)),
        "attempted": attempted,
        "failed_frac": failed / attempted,
        "errors": dict(errors.most_common(5)),
        "host_speed_factor_median": statistics.median(speed.factors),
    }
    if trace:
        metrics = layer_metrics(tracer.spans, tracer.counts, n,
                                sum(t[1] for t in timed))
        metrics["cli.import_ms"] = (statistics.median(imports), "ms")
        metrics["trace.overhead_ops_per_s"] = (n / traced - n / untraced, "1/s")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        samples = {"cli.import_ms": len(imports)}
    else:
        starts += startup_times(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = {
            "setup_s": (statistics.median(cli / bare * BARE_REF_S
                                          for cli, bare in starts), "s"),
            "ops_per_s": (n / sum(best), "1/s"),
            "op_p50_ms": (statistics.median(best) * 1000.0, "ms"),
            "op_p90_ms": (_p90(best) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = {"setup_s": len(starts), "ops_per_s": n, "op_p50_ms": n,
                   "op_p90_ms": n, "peak_rss_mb": 1}
        record.update({
            "passes": passes,
            "timed_ops": n * passes,
            "repeat_speedup": repeat_speedup,
            "output_sha256": digest.hexdigest(),
            "bare_start_s": statistics.median(s[1] for s in starts),
            "raw": {"setup_s": statistics.median(s[0] for s in starts),
                    "ops_per_s": n / sum(raw_best),
                    "op_p50_ms": statistics.median(raw_best) * 1000.0,
                    "op_p90_ms": _p90(raw_best) * 1000.0},
        })
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "samples": samples, "record": record}


# ---------------------------------------------------------------------------
# compare mode


def _spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(old_path, new_path, out=sys.stdout):
    """Per workload and metric: ratio of medians and a verdict."""
    config = json.loads(CONFIG.read_text())
    specs = {m["name"]: m for m in config["end_to_end"]}
    specs.update({m["name"]: m for m in config["per_layer"]})

    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    r = json.loads(line)
                    for name, m in r["metrics"].items():
                        runs.setdefault((r["record"]["workload"], name),
                                        []).append(m["value"])
        return runs

    old, new = load(old_path), load(new_path)
    out.write(f"{'workload':<12} {'metric':<32} {'old':>11} {'new':>11} "
              f"{'ratio':>7}  verdict\n")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        a, b = old[key], new[key]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        spec = specs.get(name, {})
        bound = spec.get("bound")
        if bound is None:
            verdict = "per-layer"
        else:
            lower = spec["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if max(_spread(a), _spread(b)) > bound and not all_better:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = f"worse (bound {bound})"
            else:
                verdict = f"no regression beyond {bound}"
        out.write(f"{workload:<12} {name:<32} {ma:>11.5g} {mb:>11.5g} "
                  f"{ratio:>7.3f}  {verdict} (n={len(a)}/{len(b)})\n")


# ---------------------------------------------------------------------------


def main(argv=None, scale=1.0):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "blowupgate" / "cli.py").is_file():
        print(f"error: {SRC / 'blowupgate'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     scale=scale)
    rec = result["record"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        n = result["samples"].get(name)
        print(f"  {name:<34} {m['value']:>14.6f} {m['unit']}"
              + (f"  (n={n})" if n else ""))
    for msg, count in rec["errors"].items():
        print(f"  failure x{count}: {msg}")
    print("record " + json.dumps(rec, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
