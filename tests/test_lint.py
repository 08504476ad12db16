"""Source rules that hold for the whole package, and what the benchmark needs of it."""

import ast
import importlib.util
import re
import sys
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


def perfbench_module(name, monkeypatch):
    """The module perfbench/<name>.py, loaded from its file.

    It sits in sys.modules under its own name until the test ends, so that
    its dataclasses resolve and the other perfbench modules can import it.
    """
    path = SRC.parents[1] / "perfbench" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmarked_build_is_a_package_table(monkeypatch):
    """Each cold build that perfbench/setup_probe.py times still exists and builds."""
    probe = perfbench_module("setup_probe", monkeypatch)
    assert probe.BUILDERS
    for module, fn in probe.BUILDERS:
        build = getattr(importlib.import_module("jordanred." + module), fn)
        assert callable(build)
        build(ALG_R)


def test_two_benchmark_line_groups_come_out_right(monkeypatch):
    """perfbench/lines.py's run_line checks every line of two orbit_stream groups."""
    spans = perfbench_module("spans", monkeypatch)
    lines = perfbench_module("lines", monkeypatch)
    stream = lines.LineStream("orbit_stream", 1)
    tracer = spans.Tracer(enabled=False)
    results = [lines.run_line(wl, tracer, "smoke") for _ in range(2)
               for wl in stream.next_group()]
    assert [r.orbit for r in results] == list(lines.ORBITS) * 2
    assert all(r.ok for r in results), [r.outcome for r in results]


def test_the_elimination_kernel_is_integer_only():
    """linalg takes and returns integer numerators; it builds no Q(i) scalar."""
    source = (SRC / "linalg.py").read_text()
    names = ("GaussRational", "GR_ZERO", "GR_ONE", "to_numerators", "from_numerators")
    assert [name for name in names if name in source] == []
