"""Every name a `dmckit` module imports is used in that module, every
import sits at module level, every function reads each of its parameters,
every module-level private name is read somewhere in the package, every
public name is read in the package or named in README.md, every record
field is read somewhere, every function the bench tracer wraps exists, no
function takes a `tol`, and only `core` names the memory budget.

No linter runs on this repository, so these stdlib checks stand in for an
unused-import rule, a no-local-import rule, an unused-parameter rule, a
dead-private-code rule, a dead-field rule and rules that keep the budget and
the comparison tolerances in one place.  `__init__.py` is exempt from the first: its
imports are the public API.
"""

import ast
import importlib.util
import os
import re

import pytest

import dmckit

PACKAGE = os.path.dirname(dmckit.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")
ALL_MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
#: deliberate lazy imports: scipy.spatial costs 0.35 s and 35 MB to import and
#: only the non-binary wiretap bound needs it (test_cli checks it stays unloaded)
LAZY_IMPORTS = {"wiretap.py": ("scipy.spatial",)}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def local_imports(source: str, allowed=()) -> list[str]:
    """Modules imported inside a function body, other than those allowed."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update((node.lineno, name) for name in names if name not in allowed)
    return [f"{name} (line {line})" for line, name in sorted(found)]


def functions(source: str):
    """(function, its parameters) for every function and lambda."""
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = func.args
            yield func, args.posonlyargs + args.args + args.kwonlyargs + [
                p for p in (args.vararg, args.kwarg) if p is not None]


def unused_parameters(source: str) -> list[str]:
    """Parameters, other than `self` and `cls`, that their function's body
    never reads (a nested function's read counts)."""
    found = []
    for func, params in functions(source):
        body = func.body if isinstance(func.body, list) else [func.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(func, "name", "<lambda>")
        found += [f"{name}.{p.arg} (line {p.lineno})" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


def test_checker_flags_an_unused_name():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "sep (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_checker_flags_an_unused_parameter():
    source = ("class C:\n    def m(self, a, b=1, *rest, c, **kw):\n"
              "        def inner():\n            return a + c\n"
              "        b = 2\n        return inner() + len(rest)\n"
              "    @classmethod\n    def k(cls, x):\n        return x\n"
              "f = lambda y, z: y\n")
    assert unused_parameters(source) == ["m.b (line 2)", "m.kw (line 2)",
                                         "<lambda>.z (line 10)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_parameters(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_parameters(fh.read()) == []


def test_checker_flags_a_local_import():
    source = ("import math\n"
              "def f():\n    import os, sys\n"
              "    def g():\n        from .images import min_image\n"
              "    from scipy.spatial import ConvexHull\n")
    assert local_imports(source) == ["os (line 3)", "sys (line 3)",
                                     ".images (line 5)", "scipy.spatial (line 6)"]
    assert local_imports(source, allowed=("scipy.spatial", "os", "sys")) == [
        ".images (line 5)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_local_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert local_imports(fh.read(), LAZY_IMPORTS.get(module, ())) == []


def test_lazy_import_allowlist_is_current():
    # an allowlisted import that moved or went away must leave the list too
    for module, names in LAZY_IMPORTS.items():
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            found = local_imports(fh.read())
        assert sorted(name.split(" (")[0] for name in found) == sorted(names)


def test_only_core_names_the_memory_budget():
    # every other module goes through core.check_budget, so no copy of the
    # rule can drift from it
    named = []
    for module in ALL_MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            source = fh.read()
        named += [f"{module}: {name}" for name in ("BUDGET_BYTES", "DENSE_CAP")
                  if name in source]
    assert named == ["core.py: BUDGET_BYTES"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no
    statement of any of `sources` reads outside their own definition."""
    defined, reads = [], []
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(f"{module}: {name}", name, len(reads)) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            reads.append({n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
    return [label for label, name, at in defined
            if not any(name in read for i, read in enumerate(reads) if i != at)]


def test_checker_flags_an_unreferenced_private():
    sources = {"a.py": ("_A, _B = 1, 2\n_C: int = 3\n"
                        "def _f():\n    return _f() + _C\n"
                        "class _K:\n    pass\n__all__ = []\n"),
               "b.py": "from .a import _B, _K\nx = _B + _K.__name__.count('_')\n"}
    assert unreferenced_privates(sources) == ["a.py: _A", "a.py: _f"]


def test_every_private_name_is_read():
    # a private helper that only a test calls belongs with the test
    sources = {}
    for module in ALL_MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreferenced_privates(sources) == []


def unreferenced_exports(init_source: str, sources: dict[str, str],
                         readme: str) -> list[str]:
    """Names that `init_source` imports which no statement of `sources`
    reads and `readme` never names."""
    exported = [alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in exported
            if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_checker_flags_an_unreferenced_export():
    init = "from .a import f, g, h, K\nfrom .b import k as kk\n"
    sources = {"a.py": "def f():\n    return g()\ndef g():\n    return 1\n"
                       "def h():\n    pass\nclass K:\n    pass\n",
               "b.py": "from .a import f\ndef k():\n    return f()\n"}
    assert unreferenced_exports(init, sources, "call `h` or hh") == ["K", "kk"]


def test_every_public_name_is_read_or_documented():
    # a public name that nothing in the package reads and README.md never
    # names is a second copy kept only for its own tests
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        init = fh.read()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert unreferenced_exports(init, sources, readme) == []


def record_fields(source: str):
    """(class, field, line) for every field of a dataclass or `NamedTuple`."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d
                 for d in cls.decorator_list] + cls.bases
        if {getattr(m, "id", getattr(m, "attr", None)) for m in marks} & {
                "dataclass", "NamedTuple"}:
            yield from ((cls.name, node.target.id, node.lineno) for node in cls.body
                        if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name))


def unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Record fields of `sources` whose name no attribute load in `readers`
    reads.  A read of the name on any object counts, so the rule misses a
    field whose name another class also reads."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}: {cls}.{name} (line {line})"
            for module, source in sorted(sources.items())
            for cls, name, line in record_fields(source) if name not in read]


def test_checker_flags_an_unread_field():
    source = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n"
              "@dataclass(frozen=True)\nclass R:\n    kept: int\n    lost: int\n"
              "    total: int = 0\n"
              "class T(NamedTuple):\n    first: int\n    second: int\n"
              "class Plain:\n    ignored: int\n")
    readers = [source, "def f(r, t):\n    r.total = 1\n    return r.kept + t.first\n"]
    assert unread_fields({"a.py": source}, readers) == [
        "a.py: R.lost (line 6)", "a.py: R.total (line 7)", "a.py: T.second (line 10)"]


def test_every_record_field_is_read():
    # a field that no module, test or bench file reads only keeps its value
    # alive
    sources = {}
    for module in ALL_MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    readers = []
    for tree in ("src", "tests", "bench"):
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), encoding="utf-8") as fh:
                        readers.append(fh.read())
    assert unread_fields(sources, readers) == []


def test_every_traced_layer_resolves():
    # bench/run.py --trace wraps each (module, attribute path) of
    # bench/spans.py LAYERS; a rename in the package must not leave it dangling
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, targets in spans.LAYERS.items():
        for module, path in targets:
            obj = importlib.import_module(f"dmckit.{module}")
            for attr in path.split("."):
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(f"{layer}: {module}.{path}")
    assert spans.LAYERS and missing == []


def tol_parameters(source: str) -> list[str]:
    """Functions that take a parameter named `tol`."""
    return [f"{getattr(func, 'name', '<lambda>')} (line {func.lineno})"
            for func, params in functions(source) if "tol" in {p.arg for p in params}]


def test_checker_flags_a_tol_parameter():
    source = "def f(x, tol=1e-9):\n    return x\ng = lambda *, tol: tol\n"
    assert tol_parameters(source) == ["f (line 1)", "<lambda> (line 3)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_tolerance_parameters(module):
    # every comparison tolerance is a constant (core.GRID, core.SUM_TOL,
    # reports.SLACK), so none can be set per call
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert tol_parameters(fh.read()) == []
