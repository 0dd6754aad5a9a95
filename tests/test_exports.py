"""The package exports only what its shipped callers run: every name that
`zpgd` or a module's `__all__` offers exists there and is referenced from
`src/`, `demos/` or `bench/` outside its own definition.  `oracles` is
exempt: it holds the independent references that the tests and the
benchmark check the solvers against (`fd_heat_solve`, for one, is a
test-only oracle today)."""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

import zpgd

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zpgd"
EXEMPT = {"zpgd.oracles"}


def _trees():
    files = [p for d in ("src", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    return {p.resolve(): ast.parse(p.read_text()) for p in files}


def _references(trees):
    """name -> (file, line) of every bare name or attribute of that name."""
    refs = defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path, node.lineno))
    return refs


def _definition(trees, obj, name):
    """(file, first line, last line) of the top-level def or class `name`
    in the module that defines `obj`, or None for any other binding."""
    file = getattr(sys.modules.get(getattr(obj, "__module__", None)), "__file__", None)
    path = Path(file).resolve() if file else None
    for node in trees[path].body if path in trees else ():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return path, node.lineno, node.end_lineno
    return None


def test_every_exported_name_exists_and_has_a_shipped_caller():
    trees = _trees()
    refs = _references(trees)
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    offered = [(zpgd, alias.asname or alias.name) for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__" and f"zpgd.{path.stem}" not in EXEMPT:
            module = importlib.import_module(f"zpgd.{path.stem}")
            offered += [(module, name) for name in getattr(module, "__all__", ())]
    missing, unused = [], []
    for module, name in offered:
        if not hasattr(module, name):
            missing.append(f"{module.__name__}.{name}")
            continue
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) in EXEMPT:
            continue
        own = _definition(trees, obj, name)
        if not any(own is None or path != own[0] or not own[1] <= line <= own[2]
                   for path, line in refs[name]):
            unused.append(f"{module.__name__}.{name}")
    assert not missing, f"exported but not defined: {missing}"
    assert not unused, f"exported with no caller in src/, demos/ or bench/: {unused}"
