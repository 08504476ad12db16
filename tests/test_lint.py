"""Source rules that hold for the whole package."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import jordanred
from jordanred.algebra import ALG_R

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


def test_every_top_level_definition_is_used():
    """Each top-level def or class of the package is named somewhere else."""
    root = SRC.parents[1]
    words = Counter(word for top in (SRC, root / "tests", root / "perfbench")
                    for path in sorted(top.rglob("*.py"))
                    for word in re.findall(r"\w+", path.read_text()))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and words[node.name] < 2):
                unused.append("%s:%s" % (path.name, node.name))
    assert (root / "perfbench").is_dir()
    assert not unused, unused


def test_every_benchmarked_build_is_a_package_table():
    """Each cold build that perfbench/setup_probe.py times still exists and builds."""
    path = SRC.parents[1] / "perfbench" / "setup_probe.py"
    spec = importlib.util.spec_from_file_location("setup_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.BUILDERS
    for module, fn in probe.BUILDERS:
        build = getattr(importlib.import_module("jordanred." + module), fn)
        assert callable(build)
        build(ALG_R)
