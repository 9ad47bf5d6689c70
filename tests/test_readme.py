"""The README's "Library quickstart" block runs as written, and each of
its commented lines shows the value the line evaluates to."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# (start of the comment, check of the value) per commented expression
EXPECTED = [
    ("([1, -3, 1], 0)", lambda v: v == ([1, -3, 1], 0)),
    ("5, 5", lambda v: v == (5, 5)),
    ("torsion=(3,)", lambda v: v.torsion == (3,)),
    ("'admissible'", lambda v: v == "admissible"),
    ("0", lambda v: v == 0),
    ("True", lambda v: v is True),
]


def _quickstart():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_values():
    source = _quickstart()
    lines = source.splitlines()
    namespace = {}
    seen = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                     namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
        seen.append((comment, value))
    assert len(seen) == len(EXPECTED)
    for (comment, value), (start, check) in zip(seen, EXPECTED):
        assert comment.startswith(start), comment
        assert check(value), (comment, value)
