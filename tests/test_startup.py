import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weakmeter

PACKAGE = Path(weakmeter.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"

# Runs in a fresh interpreter, so only what the package itself imports is loaded.
PROGRAM = """
import sys
import weakmeter, weakmeter.cli, weakmeter.scenario, weakmeter.verify
from weakmeter.cli import load_bundle
weakmeter.verify.run_checks()
weakmeter.scenario.run_scenario(weakmeter.scenario.parse_scenario(load_bundle("disembodiment")))
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_import_verify_and_run_load_no_scipy():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Runs in a fresh interpreter: the first line lists what verify loaded of
# OpenSSL and numpy.random, the second whether a scenario run then hashed
LEAN = """
import sys
import weakmeter, weakmeter.cli, weakmeter.verify
weakmeter.verify.run_checks()
print(" ".join(name for name in ("hashlib", "_hashlib", "numpy.random") if name in sys.modules))
from weakmeter.cli import load_bundle
from weakmeter.scenario import parse_scenario, run_scenario
doc = parse_scenario(load_bundle("disembodiment"))
run_scenario(doc)
print("hashlib" in sys.modules, doc.config_hash())
"""


def test_verify_loads_neither_openssl_nor_numpy_random():
    # hashlib (OpenSSL) loads at the first config hash, never for verify
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LEAN], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verify_line, run_line = proc.stdout.split("\n")[:2]
    assert verify_line == ""
    assert run_line.split() == [
        "True", "85830322b8afc79b71bc719445a8b14adea2791925c295bcdebe49aac12b14f6"]


# eigh counted from before the package is imported
TABLES = """
import numpy as np
calls = []
eigh = np.linalg.eigh
np.linalg.eigh = lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs)
import weakmeter, weakmeter.cli, weakmeter.scenario, weakmeter.verify
from weakmeter.dynamics import _catalog_basis
from weakmeter.weakvalue import _lifted
print(len(calls), _catalog_basis.cache_info().currsize, _lifted.cache_info().currsize)
"""


def test_import_runs_no_eigh_and_fills_no_table():
    # the kick-basis and lifting tables fill on first use, never at import
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TABLES], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every import statement in a module, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_package_module_imports_scipy():
    # scipy is a test-only dependency: the tests use scipy.linalg.expm as a
    # dense reference, the package never needs it
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [path.name for path in modules if "scipy" in imported_roots(path)] == []


def test_scipy_is_listed_in_the_test_extra_only():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("installed without its source tree")
    project = tomllib.loads(PYPROJECT.read_text())["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}

    assert names(project["dependencies"]) == {"numpy", "pyyaml"}
    extras = {extra: names(reqs) for extra, reqs in project["optional-dependencies"].items()}
    assert [extra for extra, reqs in extras.items() if "scipy" in reqs] == ["test"]


MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def test_modules_are_found():
    assert {"hilbert", "optics", "weakvalue", "dynamics", "scenario"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from weakmeter.<module> import *`
    mod = importlib.import_module(f"weakmeter.{module}")
    exported = list(getattr(mod, "__all__", ()))
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from weakmeter.{module} import *", namespace)
    assert set(exported) <= set(namespace)
