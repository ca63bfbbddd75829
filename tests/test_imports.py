import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import convsep

MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(convsep.__path__, "convsep.")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_imported_name_is_used(module):
    # a name imported only so that a tracer can wrap it, or left behind by
    # a deletion, is neither read in the module nor exported by it
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert sorted(unused) == []


def _private_definitions(tree) -> set:
    """Module-level private functions, classes and constants (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_definition_is_used():
    # a private helper or constant left behind by a deletion is read nowhere
    # in the package, neither in its own module nor through an import
    trees = {
        m.__name__: ast.parse(Path(m.__file__).read_text(encoding="utf-8"))
        for m in [convsep, *MODULES]
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [
        f"{name}.{private}"
        for name, tree in trees.items()
        for private in sorted(_private_definitions(tree) - read)
    ]
    assert orphans == []
