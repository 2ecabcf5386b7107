"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import diqkd_lab

MODULES = ("diqkd_lab", *(f"diqkd_lab.{m.name}" for m in pkgutil.iter_modules(diqkd_lab.__path__)))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
