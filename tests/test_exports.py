"""Every name a module lists in ``__all__`` is an attribute of that module,
so ``from xreid.<module> import *`` never breaks on a stale entry, and no
module of the package imports another module's private name."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_imports_a_private_name():
    # a leading underscore keeps a name inside its module; what another
    # module needs is public, in that module's __all__
    imports = []
    for path in sorted(Path(xreid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                imports += [f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert imports == []
