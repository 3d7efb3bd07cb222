"""Every exported name resolves, in the package and in each module."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import iqsense

# Every public submodule; importing iqsense.__main__ would run the CLI.
MODULES = sorted(m.name for m in pkgutil.iter_modules(iqsense.__path__) if m.name != "__main__")


def test_package_exports_resolve():
    assert len(set(iqsense.__all__)) == len(iqsense.__all__)
    assert [n for n in iqsense.__all__ if not hasattr(iqsense, n)] == []


def test_package_exports_are_its_imports():
    """``iqsense.__all__`` is sorted, holds no submodule and no ``_`` name,
    and is exactly what the ``from .x import ...`` lines of its
    ``__init__`` bring in."""
    assert iqsense.__all__ == sorted(iqsense.__all__)
    assert [n for n in iqsense.__all__
            if n.startswith("_") or inspect.ismodule(getattr(iqsense, n))] == []
    tree = ast.parse(inspect.getsource(iqsense))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(iqsense.__all__) == imported


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"iqsense.{name}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
