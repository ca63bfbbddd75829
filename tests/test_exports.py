import importlib
import pkgutil

import pytest

import convsep

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
