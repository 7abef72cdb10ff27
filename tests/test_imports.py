"""Every name a `dmckit` module imports is used in that module, every
import sits at module level, every function reads each of its parameters,
and only `core` names the memory budget.

No linter runs on this repository, so these stdlib checks stand in for an
unused-import rule, a no-local-import rule, an unused-parameter rule and a
rule that keeps the budget in one place.  `__init__.py` is exempt from the
first: its imports are the public API.
"""

import ast
import os

import pytest

import dmckit

PACKAGE = os.path.dirname(dmckit.__file__)
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


def unused_parameters(source: str) -> list[str]:
    """Parameters, other than `self` and `cls`, that their function's body
    never reads (a nested function's read counts)."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            p for p in (args.vararg, args.kwarg) if p is not None]
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
