import ast
import builtins
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weakmeter
from weakmeter.cli import load_bundle
from weakmeter.scenario import parse_scenario

import test_scenario

PACKAGE = Path(weakmeter.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def run_fresh(program: str, *args: str) -> str:
    """The stdout of ``program`` run on the package's source in a fresh interpreter.

    A fresh interpreter has loaded only what the package itself imports.
    ``args`` are the program's ``sys.argv[1:]``.
    """
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PROGRAM = """
import sys
import weakmeter, weakmeter.cli, weakmeter.scenario, weakmeter.verify
from weakmeter.cli import load_bundle
weakmeter.verify.run_checks()
weakmeter.scenario.run_scenario(weakmeter.scenario.parse_scenario(load_bundle("disembodiment")))
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_import_verify_and_run_load_no_scipy():
    assert run_fresh(PROGRAM).strip() == ""


# The first line lists what verify loaded of OpenSSL and numpy.random; the
# next what a run, its config hash, the records writer and `weakmeter run`
# then loaded of OpenSSL, how many mapped lines name libcrypto, and the hash
LEAN = """
import contextlib, io, os, sys
import weakmeter, weakmeter.cli, weakmeter.verify
weakmeter.verify.run_checks()
print(" ".join(name for name in ("hashlib", "_hashlib", "numpy.random") if name in sys.modules))
from weakmeter.cli import load_bundle, main
from weakmeter.scenario import parse_scenario, records_to_jsonl, run_scenario
doc = parse_scenario(load_bundle("disembodiment"))
records_to_jsonl(run_scenario(doc))
with contextlib.redirect_stdout(io.StringIO()):
    main(["run", "bundle:disembodiment", "--format", "records"])
print(" ".join(name for name in ("hashlib", "_hashlib") if name in sys.modules))
maps = "/proc/self/maps"
print(sum("libcrypto" in line for line in open(maps)) if os.path.exists(maps) else 0)
print(doc.config_hash())
"""


def test_verify_loads_neither_openssl_nor_numpy_random():
    # the config hash takes CPython's own SHA-256, so no process maps OpenSSL
    verify_line, run_line, crypto_maps, digest = run_fresh(LEAN).split("\n")[:4]
    assert verify_line == ""
    assert run_line == ""
    assert crypto_maps == "0"
    assert digest == "85830322b8afc79b71bc719445a8b14adea2791925c295bcdebe49aac12b14f6"


# The modules named in argv are blocked, so importing one raises ImportError.
# Prints the module the SHA-256 constructor came from, whether hashlib
# loaded, and then every bundle's config hash.
BLOCKED = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None
from weakmeter import scenario
from weakmeter.cli import list_bundles, load_bundle
print(scenario._sha256.__module__, "hashlib" in sys.modules)
print(json.dumps({name: scenario.parse_scenario(load_bundle(name)).config_hash()
                  for name in list_bundles()}))
"""


@pytest.mark.parametrize("blocked", [("_sha2",), ("_sha256",), ("_sha2", "_sha256")],
                         ids=["no-_sha2", "no-_sha256", "neither"])
def test_every_sha256_constructor_gives_the_pinned_hashes(blocked):
    first, hashes = run_fresh(BLOCKED, *blocked).split("\n")[:2]
    module, hashlib_loaded = first.split()
    builtin = [name for name in ("_sha2", "_sha256")
               if name not in blocked and importlib.util.find_spec(name)]
    if builtin:
        assert (module, hashlib_loaded) == (builtin[0], "False")
    else:
        assert hashlib_loaded == "True"
    assert json.loads(hashes) == test_scenario.TestCanonicalText.BUNDLE_HASHES


def test_config_hash_imports_nothing_per_call(monkeypatch):
    # the constructor is resolved once, at import: a failed import is not
    # cached, so resolving it per call would search sys.path on every hash
    doc = parse_scenario(load_bundle("disembodiment"))
    imports = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    digests = {doc.config_hash() for _ in range(50)}
    monkeypatch.undo()
    assert imports == []
    assert digests == {"85830322b8afc79b71bc719445a8b14adea2791925c295bcdebe49aac12b14f6"}


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
    assert run_fresh(TABLES).split() == ["0", "0", "0"]


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
