"""The package's exports: every name in an ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import cdf_mise

MODULES = ["cdf_mise"] + [f"cdf_mise.{m.name}" for m in pkgutil.iter_modules(cdf_mise.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert sorted(set(module.__all__)) == sorted(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_are_the_modules_objects():
    # each name the package exports is the object a submodule exports
    exported = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        exported.update({attr: getattr(module, attr) for attr in module.__all__})
    for attr in cdf_mise.__all__:
        assert getattr(cdf_mise, attr) is exported[attr], attr
