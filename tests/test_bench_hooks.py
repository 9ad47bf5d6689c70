"""The benchmark's tracer finds every function it wraps.

bench/tracer.py looks up the functions it times and counts by name, with
getattr, when a traced pass starts.  A function renamed without the
tracer fails here, not only in a traced benchmark run
(`bench/run.py --trace 1`, which `bench/smoke.py` makes).
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _tracer()
    hooks = [(mod, func) for mod, func, *_ in (*tracer.SPANS, *tracer.COUNTS)]
    hooks.append(("cli", "_build_parser"))
    missing = [(mod, func) for mod, func in hooks
               if not callable(getattr(importlib.import_module(
                   f"blowupgate.{mod}"), func, None))]
    assert missing == []
