import os
import subprocess
import sys
from pathlib import Path

import weakmeter

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
    src = str(Path(weakmeter.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
