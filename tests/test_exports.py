"""Every public name a module declares in __all__ exists."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["core", "extended", "herglotz", "integrate", "systems", "virial"]
)
def test_all_names_exist(module):
    mod = importlib.import_module(f"contactdyn.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
