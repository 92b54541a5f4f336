"""Every name a module lists in ``__all__`` is an attribute of that module,
so ``from xreid.<module> import *`` never breaks on a stale entry."""

import importlib
import pkgutil

import pytest

import xreid

MODULES = [
    name
    for name in ["xreid"] + [f"xreid.{m.name}" for m in pkgutil.iter_modules(xreid.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
