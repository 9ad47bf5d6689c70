"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import blowupgate

PACKAGE = Path(blowupgate.__file__).parent


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
