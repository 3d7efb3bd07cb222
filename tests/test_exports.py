"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import iqsense

# Every public submodule; importing iqsense.__main__ would run the CLI.
MODULES = sorted(m.name for m in pkgutil.iter_modules(iqsense.__path__) if m.name != "__main__")


def test_package_exports_resolve():
    assert len(set(iqsense.__all__)) == len(iqsense.__all__)
    assert [n for n in iqsense.__all__ if not hasattr(iqsense, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"iqsense.{name}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
