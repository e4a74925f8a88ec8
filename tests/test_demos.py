import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakmeter

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # each demo is a script against the public API; run it as a user would
    src = str(Path(weakmeter.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
