"""Every name a ``qtmoments`` module exports in ``__all__`` exists, and the
package exports exactly those names.

A deleted function whose ``__all__`` entry stayed behind breaks
``from qtmoments.<module> import *`` only when someone runs it; this catches
it at test time.
"""

import importlib.util
import os
import pkgutil
import subprocess
import sys
import types

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


def test_the_package_exports_the_union_of_the_module_lists():
    # the package star-imports each module, so its names are the __all__ lists
    # and no hand-kept copy of them can drift
    listed = [n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", [])]
    assert len(listed) == len(set(listed)), "a name is in two modules' __all__"
    public = {n for n, value in vars(qtmoments).items()
              if not n.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(listed)


def test_the_bench_table_builder_imports(monkeypatch):
    # perfbench/make_expected.py imports library names at module level and does
    # its work only under __main__; a name it needs that the library dropped
    # fails here
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location(
        "make_expected", os.path.join(bench, "make_expected.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, which every CLI
    # call would pay for before any algebra starts
    src = os.path.dirname(os.path.dirname(qtmoments.__file__))
    code = ("import sys; before = set(sys.modules); import qtmoments.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "qtmoments.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
