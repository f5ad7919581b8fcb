"""Every name a ``qtmoments`` module exports in ``__all__`` exists.

A deleted function whose ``__all__`` entry stayed behind breaks
``from qtmoments.<module> import *`` only when someone runs it; this catches
it at test time.
"""

import importlib
import pkgutil

import pytest

import qtmoments

MODULES = sorted(
    f"qtmoments.{info.name}"
    for info in pkgutil.iter_modules(qtmoments.__path__)
    if not info.name.startswith("_")
)


def test_every_module_is_listed():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
