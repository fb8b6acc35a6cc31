"""Every exported name resolves.

The benchmark tracer looks up every reports.render_* name in __all__,
so a stale export would break every traced run, not just an import.
"""
import importlib
import pkgutil

import pytest

import bracketlab
from bracketlab import cli, theory

MODULES = ["bracketlab"] + sorted(m.name for m in pkgutil.iter_modules(bracketlab.__path__, "bracketlab."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_shares_the_theory_suites():
    # the tracer swaps every module attribute that is the traced function
    assert cli.verify_rows is theory.verify_rows
    assert cli.SUITES is theory.SUITES


def test_every_package_export_is_a_submodule_export():
    # the package re-exports its modules' public names, so each one is
    # declared public where it lives
    declared = {n for m in MODULES[1:] for n in getattr(importlib.import_module(m), "__all__", ())}
    assert [n for n in bracketlab.__all__ if n != "__version__" and n not in declared] == []
