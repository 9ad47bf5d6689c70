"""Layer spans recorded from outside the library.

While a Tracer is installed, selected functions of blowupgate are
replaced by wrappers in every package module that refers to them, so
calls made through module globals (including aliases such as
``invariants._seifert_of_braid``) are recorded.  Nothing under src/ is
edited; `uninstall` restores the originals.  The library layers are
traced through their public functions.  The cli layer has no public
functions besides ``run``, which encloses everything, so its own work
is traced through its helpers: the parser build, ``parse_args`` on the
built parser, JSON loading and conversion, and output.  Work that no
traced function encloses (for example ``PSL2.from_matrix`` in the euler
command) is then left over as unaccounted time.

A span is (name, start, end, parent index, operation id, note).  Spans
nest because the library is single-threaded here (BLOWUPGATE_THREADS=1).
Hot arithmetic helpers are counted, not timed, to keep the overhead low.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter


def _laurent_size(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["mat"])


def _solve_note(args, kwargs, result):
    restarts = kwargs.get("restarts", args[1] if len(args) > 1 else 20)
    return (restarts, len(result))


def _census_note(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    p, q, r = data.exponents
    return ((p - 1) * (q - 1) * (r - 1), len(result))


# (module, function, span name, note)
SPANS = [
    ("cli", "_load_json", "cli.load_json", None),
    ("cli", "_diagram_from_json", "cli.from_json", None),
    ("cli", "_presentation_from_json", "cli.from_json", None),
    ("cli", "_matrix_json", "cli.to_json", None),
    ("cli", "_emit", "cli.emit", None),
    ("links", "from_braid", "links.from_braid", None),
    ("links", "parse_pd", "links.parse_pd", None),
    ("links", "seifert_matrix", "links.seifert_matrix", None),
    ("links", "wirtinger", "links.wirtinger", None),
    ("links", "sublink", "links.sublink", None),
    ("invariants", "link_invariants", "invariants.link_invariants", None),
    ("invariants", "alexander_seifert", "invariants.alexander_seifert", None),
    ("invariants", "alexander_fox", "invariants.alexander_fox", None),
    ("invariants", "fox_jacobian", "invariants.fox_jacobian", None),
    ("invariants", "branched_cover_h1", "invariants.branched_cover_h1", None),
    ("invariants", "branched_cover_h1_fox", "invariants.branched_cover_h1_fox",
     None),
    ("invariants", "determinant_at_minus_one",
     "invariants.determinant_at_minus_one", None),
    ("gate", "gate", "gate.gate", None),
    ("exact", "laurent_det", "exact.laurent_det", _laurent_size),
    ("exact", "laurent_gcd", "exact.laurent_gcd", None),
    ("exact", "smith_normal_form", "exact.snf", None),
    ("exact", "cokernel", "exact.snf", None),
    ("repvar", "solve", "repvar.solve", _solve_note),
    ("repvar", "trace_coordinates", "repvar.classify", None),
    ("repvar", "is_irreducible", "repvar.classify", None),
    ("repvar", "is_abelian", "repvar.classify", None),
    ("repvar", "is_metabelian", "repvar.classify", None),
    ("repvar", "residual", "repvar.residual", None),
    ("repvar", "brieskorn_enumerate", "repvar.census", _census_note),
    ("psl2r", "translation_number", "psl2r.translation_number", None),
    ("psl2r", "euler_number", "psl2r.euler_number", None),
]

# (module, function, counter name)
COUNTS = [
    ("psl2r", "mat_mul", "psl2r.mat_mul"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    def _timed(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = note(args, kwargs, result) if note and result is not None \
                    else None
                spans[idx] = (name, start, end, parent, self.op, info)

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "blowupgate" or key.startswith("blowupgate.")]
        wrapped = {}
        for mod, func, name, note in SPANS:
            fn = getattr(sys.modules[f"blowupgate.{mod}"], func)
            wrapped[id(fn)] = (fn, self._timed(fn, name, note))
        build = sys.modules["blowupgate.cli"]._build_parser
        timed_build = self._timed(build, "cli.build_parser", None)

        def build_parser():
            parser = timed_build()
            parser.parse_args = self._timed(parser.parse_args,
                                            "cli.parse_args", None)
            return parser

        wrapped[id(build)] = (build, build_parser)
        for mod, func, name in COUNTS:
            fn = getattr(sys.modules[f"blowupgate.{mod}"], func)
            wrapped[id(fn)] = (fn, self._counted(fn, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "note": info}) + "\n")


def layer_metrics(spans, counts, n_ops, latency_total):
    """Per-layer metrics per operation from one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.  The time
    no layer accounts for is the operations' latency (latency_total, in
    seconds) minus the self times of all spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms = Counter()
    calls = Counter()
    layer_ms = Counter()
    det_calls_under_fox = 0
    sublinks_under_gate = 0
    max_n = 0
    restarts = kept = triples = classes = 0
    for idx, (name, start, end, parent, _op, info) in enumerate(spans):
        own = (end - start - child[idx]) * 1000.0
        self_ms[name] += own
        layer_ms[name.split(".")[0]] += own
        calls[name] += 1
        if name == "exact.laurent_det":
            max_n = max(max_n, info or 0)
            if _has_ancestor(spans, parent, "invariants.alexander_fox"):
                det_calls_under_fox += 1
        elif name == "links.sublink":
            if _has_ancestor(spans, parent, "gate.gate"):
                sublinks_under_gate += 1
        elif name == "repvar.solve" and info:
            restarts += info[0]
            kept += info[1]
        elif name == "repvar.census" and info:
            triples += info[0]
            classes += info[1]
    n = max(n_ops, 1)
    accounted = sum(layer_ms.values())
    return {
        "cli.self_ms": (layer_ms["cli"] / n, "ms/op"),
        "links.ms": (layer_ms["links"] / n, "ms/op"),
        "links.calls": (sum(v for k, v in calls.items()
                            if k.startswith("links.")) / n, "calls/op"),
        "invariants.self_ms": (layer_ms["invariants"] / n, "ms/op"),
        "invariants.fox_minors_per_poly": (
            det_calls_under_fox / calls["invariants.alexander_fox"]
            if calls["invariants.alexander_fox"] else 0.0, "ratio"),
        "gate.self_ms": (layer_ms["gate"] / n, "ms/op"),
        "gate.sublink_calls": (sublinks_under_gate / n, "calls/op"),
        "exact.laurent_det.ms": (self_ms["exact.laurent_det"] / n, "ms/op"),
        "exact.laurent_det.calls": (calls["exact.laurent_det"] / n, "calls/op"),
        "exact.laurent_det.max_n": (max_n, "count"),
        "exact.laurent_gcd.ms": (self_ms["exact.laurent_gcd"] / n, "ms/op"),
        "exact.snf.ms": (self_ms["exact.snf"] / n, "ms/op"),
        "repvar.solve.ms": (self_ms["repvar.solve"] / n, "ms/op"),
        "repvar.solve.restarts": (restarts / n, "restarts/op"),
        "repvar.solve.kept_ratio": (kept / restarts if restarts else 0.0,
                                    "ratio"),
        "repvar.classify.ms": (self_ms["repvar.classify"] / n, "ms/op"),
        "repvar.census.ms": (self_ms["repvar.census"] / n, "ms/op"),
        "repvar.census.triples": (triples / n, "triples/op"),
        "repvar.census.classes": (classes / n, "classes/op"),
        "psl2r.mat_mul.calls": (counts["psl2r.mat_mul"] / n, "calls/op"),
        "psl2r.translation_number.ms": (
            self_ms["psl2r.translation_number"] / n, "ms/op"),
        "psl2r.translation_number.calls": (
            calls["psl2r.translation_number"] / n, "calls/op"),
        "psl2r.euler_number.ms": (self_ms["psl2r.euler_number"] / n, "ms/op"),
        "trace.unaccounted_ms": (
            (latency_total * 1000.0 - accounted) / n, "ms/op"),
    }


def _has_ancestor(spans, idx, name):
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
