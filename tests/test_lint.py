"""Source rules that hold for the whole package, and what the benchmark needs of it."""

import ast
import hashlib
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import jordanred
from jordanred.algebra import ALL_TAGS, product_kernel
from jordanred.jordan import jordan_kernel
from jordanred.reductions import ReductionLine, severi_points_on_line

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


def test_imports_sit_at_module_level():
    """No import statement inside a function body of the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend("%s:%d" % (path.name, sub.lineno) for sub in ast.walk(node)
                             if isinstance(sub, (ast.Import, ast.ImportFrom)))
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, found


def test_only_the_sampler_imports_random():
    """Every report's randomness comes from the seeded draws of sampling.py."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "random" in modules:
                found.append(path.name)
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == ["sampling.py"], found


def test_no_floating_point_in_the_package():
    """No float or complex literal and no float() or complex() call: every value is exact."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex")):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, found


def test_campaigns_draw_before_they_check():
    """cli.py draws a campaign's samples into a list before it checks them:
    no sampler call and no rng method call sits in a generator expression or
    in the body of a `for ... in range(...)` loop, where a failing check
    could skip the draws after it."""
    samplers = {node.name for node in ast.parse((SRC / "sampling.py").read_text()).body
                if isinstance(node, ast.FunctionDef)}

    def draws(node):
        return [sub.lineno for sub in ast.walk(node) if isinstance(sub, ast.Call) and (
            isinstance(sub.func, ast.Name) and sub.func.id in samplers
            or isinstance(sub.func, ast.Attribute) and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "rng")]
    tree = ast.parse((SRC / "cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.GeneratorExp):
            found.extend(draws(node))
        elif (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
              and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range"):
            found.extend(line for stmt in node.body for line in draws(stmt))
    assert "random_element" in samplers and len(draws(tree)) > 10
    assert not found, sorted(set(found))


def _identifiers(node):
    """The names a syntax tree refers to: Name ids, attribute names and imported names."""
    return Counter(sub.id if isinstance(sub, ast.Name) else
                   sub.attr if isinstance(sub, ast.Attribute) else sub.name
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute, ast.alias)))


def _assigned_names(node):
    """The non-dunder names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)
            and not (sub.id.startswith("__") and sub.id.endswith("__"))]


def test_every_top_level_definition_is_used():
    """Each top-level def, class or assigned name of the package (dunders
    aside), and each non-dunder method of a top-level class, is referred to
    by package code outside its own definition or assignment, by perfbench/,
    or exported by __init__ (an import there).  Tests do not count: code that
    only tests reach belongs in the tests."""
    root = SRC.parents[1]
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    package = sum((_identifiers(tree) for tree in trees.values()), Counter())
    benchmark = {word for path in sorted((root / "perfbench").glob("*.py"))
                 for word in re.findall(r"\w+", path.read_text())}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            unused.extend("%s:%s" % (name, target) for target in _assigned_names(node)
                          if target not in benchmark
                          and package[target] == _identifiers(node)[target])
            if not isinstance(node, defs):
                continue
            units = [node]
            if isinstance(node, ast.ClassDef):
                units += [sub for sub in node.body if isinstance(sub, defs[:2])
                          and not (sub.name.startswith("__") and sub.name.endswith("__"))]
            unused.extend("%s:%s" % (name, unit.name) for unit in units
                          if unit.name not in benchmark
                          and package[unit.name] == _identifiers(unit)[unit.name])
    assert len(trees) > 10 and benchmark
    assert not unused, unused


def test_no_unused_imports_in_the_package():
    """Every name a package module imports is referred to by a Name, the root
    of any attribute chain; __init__'s imports are its exports."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend("%s:%s" % (path.name, name) for name in names if name not in used)
    assert len(list(SRC.glob("*.py"))) > 10
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


# spans first: the others import its Tracer
PERFBENCH_MODULES = ("spans", "kernels", "campaign", "lines", "setup_probe", "run")


def test_every_benchmark_module_loads_against_the_package(monkeypatch):
    """Each perfbench module imports, so every package name it imports still exists."""
    found = sorted(path.stem for path in (SRC.parents[1] / "perfbench").glob("*.py"))
    assert found == sorted(PERFBENCH_MODULES)
    for name in PERFBENCH_MODULES:
        perfbench_module(name, monkeypatch)


def test_every_benchmarked_build_is_a_package_table(monkeypatch):
    """Each cold build that perfbench/setup_probe.py times still exists and builds
    for every algebra: t(A) is empty for R, so R alone forms no triality equation."""
    probe = perfbench_module("setup_probe", monkeypatch)
    assert probe.BUILDERS
    for module, fn in probe.BUILDERS:
        build = getattr(importlib.import_module("jordanred." + module), fn)
        assert callable(build)
        for tag in ALL_TAGS:
            build(tag)


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


# A digest of the sorted rank-one points of each line of the first two groups
# of each line workload at seed 1.  The codim-1 and codim-2 lines among them
# have minors' gcds with repeated factors, (t-a)(t-b)^2 and (t-a)^3.
BENCHMARK_POINT_DIGESTS = {
    "orbit_stream": ["3048716f1995a497", "67d0e8282e9d4e68", "e19c0527505cdcfa",
                     "1c28f2eb0958c3d1", "4320c8d3728409bf", "e1ffb4db430e520c",
                     "bdfad5211e75cf75", "1c28f2eb0958c3d1"],
    "tall_lines": ["b76f6788aa825993", "29918fab4b1954ca", "bc454d195813f026",
                   "1c28f2eb0958c3d1", "a457167cca489eec", "765628f71fb32d4f",
                   "e46372be447d5375", "1c28f2eb0958c3d1"],
}


def _point_digest(line):
    """The sorted multiset of (param, special, extension_degree), hashed."""
    pts = severi_points_on_line(line)
    items = sorted(json.dumps([None if p.param is None else [c.to_json() for c in p.param],
                               p.special, p.extension_degree]) for p in pts.points)
    return hashlib.sha256(json.dumps([pts.whole_line] + items).encode()).hexdigest()[:16]


def test_the_rank_one_points_of_benchmark_lines_are_pinned(monkeypatch):
    """The points of two groups of each line workload, parameters included."""
    perfbench_module("spans", monkeypatch)
    lines = perfbench_module("lines", monkeypatch)
    for workload, want in BENCHMARK_POINT_DIGESTS.items():
        stream = lines.LineStream(workload, 1)
        got = [_point_digest(ReductionLine.from_json(json.loads(wl.wire)))
               for _ in range(2) for wl in stream.next_group()]
        assert got == want, workload


def test_the_elimination_kernel_is_integer_only():
    """linalg takes and returns integer numerators; it builds no Q(i) scalar."""
    source = (SRC / "linalg.py").read_text()
    names = ("GaussRational", "GR_ZERO", "GR_ONE", "to_numerators", "from_numerators")
    assert [name for name in names if name in source] == []


def test_the_exponential_series_is_integer_only():
    """liealg's exponential series, and random_unipotent which drives it, work
    on integer numerators: they build no Q(i) scalar or Fraction."""
    tree = ast.parse((SRC / "liealg.py").read_text())
    units = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = ("GaussRational", "Fraction", "to_numerators", "from_numerators")
    for unit in ("exp_apply", "random_unipotent"):
        used = _identifiers(units[unit])
        assert [name for name in used if name in names or name.startswith("GR_")] == [], unit


KERNEL_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return,
                ast.Tuple, ast.List, ast.Name, ast.Load, ast.Store, ast.BinOp, ast.Add,
                ast.Sub, ast.Mult, ast.UnaryOp, ast.USub, ast.Constant)


def test_the_product_kernels_are_integer_only():
    """The builders of the compiled algebra and Jordan products name no Q(i)
    scalar or Fraction, and each generated source holds only names, int
    constants, tuple unpacking, lists and + - *: no call, no attribute, no
    float and no name that the function does not bind itself, so `exec` runs
    nothing but integer arithmetic on its arguments."""
    names = ("GaussRational", "Fraction", "to_numerators", "from_numerators")
    builders = {"algebra.py": ("scalar_terms", "product_terms", "_sum_source",
                               "compile_kernel", "product_kernel", "mul_numerators"),
                "jordan.py": ("jordan_kernel", "jordan_mul")}
    for path, units in builders.items():
        tree = ast.parse((SRC / path).read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for unit in units:
            used = _identifiers(defs[unit])
            assert [n for n in used if n in names or n.startswith("GR_")] == [], unit
    kernels = [product_kernel(tag.dim) for tag in ALL_TAGS] + [
        jordan_kernel(tag.dim) for tag in ALL_TAGS]
    for kernel in kernels:
        nodes = list(ast.walk(ast.parse(kernel.source)))
        assert [type(node).__name__ for node in nodes if not isinstance(node, KERNEL_NODES)
                or isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.USub)
                or isinstance(node, ast.Constant) and type(node.value) is not int] == []
        assert sum(isinstance(node, ast.FunctionDef) for node in nodes) == 1
        bound = {node.arg for node in nodes if isinstance(node, ast.arg)} | {
            node.id for node in nodes if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)}
        assert {node.id for node in nodes if isinstance(node, ast.Name)} <= bound
