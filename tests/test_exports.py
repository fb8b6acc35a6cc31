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
