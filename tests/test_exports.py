import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import convsep

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [
    module
    for module in (
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(convsep.__path__, "convsep.")
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_exactly_the_readme_python_api():
    # every other public name is imported from its module, whose __all__
    # is the one list of it
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    readme = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "convsep"
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(convsep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(readme) == 6
    assert exported == readme
    assert convsep.__version__
