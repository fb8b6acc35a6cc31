"""The package's import graph, the names the benchmark traces, and no unused imports in the tree."""
import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(path for top in ("src", "tests", "demos", "bench") for path in (ROOT / top).rglob("*.py"))


def test_package_import_loads_no_scipy():
    # a fresh interpreter, since this process imports scipy itself as the tests' oracle
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import bracketlab, bracketlab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_rank_tests_load_no_numpy_ma():
    # numpy.ma costs about 1.3 MB of resident memory; numpy 2.x loads it from a
    # plain np.unique or np.union1d, so the rank-sum setup must avoid both
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from bracketlab.estimation import mwu_exact, mwu_test\n"
        "mwu_test([1.0, 2.0, 2.0], [2.0, 3.5]); mwu_exact([1.0, 2.0, 2.0], [2.0, 3.5])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_reading_a_csv_loads_no_numpy_ma():
    # as above: read_csv's columnar reader must take no plain np.unique
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from bracketlab.experiment import read_csv\n"
        f"read_csv({str(ROOT / 'tests' / 'data' / 'golden_data.csv')!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _scipy_imports(source: str) -> list[str]:
    """The scipy modules a source file imports, at any depth."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_source_file_imports_scipy(path):
    # numpy is the one runtime dependency; scipy is the tests' oracle
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_a_scipy_import():
    source = (
        "import numpy, scipy.stats as st\n"
        "from scipy.special import ndtr\n"
        "from . import scipy_like\n"
        "def f():\n"
        "    from scipy import optimize\n"
    )
    assert _scipy_imports(source) == ["scipy.stats", "scipy.special", "scipy"]


def test_benchmark_traced_names_exist():
    # bench/tracer.py looks each (module, function) up by name when tracing starts
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, name) for module, name, *_ in tracer._TARGETS]
    missing = [f"{m}.{n}" for m, n in targets if not hasattr(importlib.import_module(f"bracketlab.{m}"), n)]
    assert targets and missing == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced, unless listed in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.linalg.inv starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # a starred entry such as *a.__all__ uses a, which the scan of Names has seen
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used | exported]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import pi as tau, e\n"
        "__all__ = ['e']\n"
        "sys.exit(tau)\n"
    )
    assert _unused_imports(source) == ["os (line 2)"]


def test_scan_reads_a_starred_all():
    # the package __init__ star-imports each layer and re-exports it as *layer.__all__
    source = (
        "import os\n"
        "from . import a\n"
        "from .a import *\n"
        "__all__ = [*a.__all__]\n"
    )
    assert _unused_imports(source) == ["os (line 1)"]
