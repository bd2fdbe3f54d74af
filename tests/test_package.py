from __future__ import annotations

import importlib
import pkgutil

import pytest

import pipal

MODULES = ["pipal"] + [f"pipal.{m.name}" for m in pkgutil.iter_modules(pipal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
