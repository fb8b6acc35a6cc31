"""Every exported name resolves.

The benchmark tracer looks up every reports.render_* name in __all__,
so a stale export would break every traced run, not just an import.
The price list and the reading of a row pattern on it are defined in
bracketlab.design alone; every other module imports them.
"""
import ast
import importlib
import inspect
import pkgutil

import pytest

import bracketlab
from bracketlab import cli, design, theory

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


LAYERS = ("preferences", "design", "agents", "experiment", "estimation", "theory", "config")


def test_package_exports_are_the_layers_exports():
    # the package re-exports its layers' public names, so each one is
    # declared public where it lives, and only there
    layers = [importlib.import_module(f"bracketlab.{m}") for m in LAYERS]
    expected = ["__version__"] + [n for layer in layers for n in layer.__all__]
    assert bracketlab.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert [n for layer in layers for n in layer.__all__ if getattr(bracketlab, n) is not getattr(layer, n)] == []


def test_no_name_is_declared_public_twice():
    owners = {}
    for name in MODULES[1:]:
        for n in getattr(importlib.import_module(name), "__all__", ()):
            owners.setdefault(n, []).append(name)
    assert {n: names for n, names in owners.items() if len(names) > 1} == {}


# the price list and the reading of a row pattern on it, owned by design
PRICE_LIST_FACTS = (
    "N_ROWS", "CENSOR_CODE", "RECORDED_WAGE", "SUFFIX_CODE", "CODE_FIRST_ROW", "CODE_CONSISTENT", "snap_rows",
)


@pytest.mark.parametrize(
    "name", ["bracketlab"] + [f"bracketlab.{m}" for m in ("agents", "experiment", "estimation", "config", "cli")]
)
def test_price_list_facts_are_designs(name):
    module = importlib.import_module(name)
    assert [n for n in PRICE_LIST_FACTS if hasattr(module, n) and getattr(module, n) is not getattr(design, n)] == []


def _module_level_names(tree):
    """The names a module's top-level statements assign or define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("name", [m for m in MODULES[1:] if m != "bracketlab.design"])
def test_only_design_defines_the_price_list_facts(name):
    # N_ROWS = 16 anywhere would be the same int object, so identity alone cannot catch it
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    assert _module_level_names(tree) & {*PRICE_LIST_FACTS, "_SNAP_SLACK"} == set()
