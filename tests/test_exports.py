"""Every public name the package advertises resolves: the names in each
module's __all__, and the names z4negacyclic/__init__.py imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import z4negacyclic

MODULES = sorted(info.name for info in pkgutil.iter_modules(z4negacyclic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"z4negacyclic.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    tree = ast.parse(Path(z4negacyclic.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "decode" in names and "solve_by_approximations" in names
    assert [n for n in names if not hasattr(z4negacyclic, n)] == []
