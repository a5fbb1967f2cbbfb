"""Every public name a module declares in __all__ exists, and the package re-exports them."""

import importlib
import inspect

import pytest

import contactdyn

MODULES = ["core", "extended", "herglotz", "integrate", "systems", "virial"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"contactdyn.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_exactly_the_modules_all():
    declared = set()
    for module in MODULES:
        declared |= set(importlib.import_module(f"contactdyn.{module}").__all__)
    exported = {
        name for name in dir(contactdyn)
        if not name.startswith("_") and not inspect.ismodule(getattr(contactdyn, name))
    }
    assert sorted(exported - declared) == []
    assert sorted(declared - exported) == []
