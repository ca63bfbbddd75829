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
