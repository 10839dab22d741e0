"""The examples in the module docstrings run as written."""

import doctest
import importlib
import pkgutil

import pytest

import coxtop

MODULES = ["coxtop"] + [f"coxtop.{m.name}" for m in pkgutil.iter_modules(coxtop.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
