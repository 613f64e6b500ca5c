import importlib
import pkgutil

import pytest

import supercoinv

MODULES = ["supercoinv"] + [
    f"supercoinv.{info.name}" for info in pkgutil.iter_modules(supercoinv.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and misleads readers of the public API
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
