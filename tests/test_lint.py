"""Source rules that hold for the whole package."""

import ast
from pathlib import Path

import jordanred

SRC = Path(jordanred.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """Result checks raise, so they still run under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, found
