"""Every function, class, method and module-level constant of the package
has a reader outside the tests: a name defined in ``src/metareweight`` must
be read somewhere in ``src/`` or in the benchmark's non-test files, so that
no code lives on for the tests alone; the assignment that binds a constant
is no read.  A string names a definition only in the benchmark,
whose tracer targets are dotted strings; in ``src/`` a name listed in
``__all__``, or any other string, is no use.  Likewise every name a module
of the package imports must be read in that module (``__init__.py``, which
imports to re-export, aside); a docstring's mention is no read."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "metareweight").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
# A tracer target names a function or method as a dotted string.
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree) -> list[str]:
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def constants(tree) -> list[str]:
    """Names that the module-level assignments of ``tree`` bind, dunders
    such as ``__all__`` aside."""
    return [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and not target.id.startswith("__")]


def used_names(tree, strings: bool) -> set[str]:
    """Names ``tree`` reads; with ``strings``, also the parts of each dotted
    string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def test_every_definition_in_the_package_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + BENCHMARK}
    defined = [(path.name, name) for path in PACKAGE
               for name in definitions(trees[path]) + constants(trees[path])]
    used = set().union(*(used_names(tree, path in BENCHMARK) for path, tree in trees.items()))
    assert len(defined) > 100  # the parse found the package
    assert ("numkit.py", "_GAUSSIAN_CHUNK") in defined  # the walk found the constants
    assert [f"{file}: {name}" for file, name in defined if name not in used] == []


def unused_imports(tree) -> list[tuple[int, str]]:
    """(line, name) of each name an import in ``tree`` binds that no
    expression in ``tree`` reads; ``__future__`` imports bind nothing."""
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_import_in_the_package_is_read():
    modules = [path for path in PACKAGE if path.name != "__init__.py"]
    assert len(modules) > 5  # the glob found the package
    unused = [f"{path.name}:{line}: {name}" for path in modules
              for line, name in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []
