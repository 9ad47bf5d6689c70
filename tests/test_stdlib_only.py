"""The library imports nothing outside the standard library, and
importing the CLI stays cheap: no module imports dataclasses, which
pulls in inspect, dis and ast and compiles its methods at import, or
argparse, which pulls in gettext and locale and whose parser of the
seven subcommands took about 1.5 ms to build and 15-55 us a call.  Only
errors._Record stores the fields of a value type, and only
IntMatrix.from_rows calls the checked IntMatrix constructor: the checks
are for outside input, and a matrix the package builds is stored by
IntMatrix._of."""

import ast
import subprocess
import sys
from pathlib import Path

import blowupgate

PACKAGE = Path(blowupgate.__file__).parent

# standard modules too costly to import at start-up
UNWANTED = ("dataclasses", "inspect", "argparse")


def top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in top_level_imports(tree):
            assert name in sys.stdlib_module_names or name == "blowupgate", \
                f"{path.name} imports {name}"
            assert name not in UNWANTED, f"{path.name} imports {name}"


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    code = ("import sys, blowupgate.cli; "
            f"print(*[m for m in {UNWANTED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_only_the_record_base_stores_fields():
    modules = sorted(PACKAGE.rglob("*.py"))
    stores = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                stores.append(path.name)
    assert stores and set(stores) == {"errors.py"}, stores


def calls_by_function(tree, name):
    """The qualified names of the functions and classes that call name(...)
    directly, one per call ("<module>" at the top level)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                out.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return out


def test_only_from_rows_calls_the_checked_matrix_constructor():
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.name}:{scope}"
                    for scope in calls_by_function(tree, "IntMatrix")]
    assert callers == ["exact.py:IntMatrix.from_rows"], callers
