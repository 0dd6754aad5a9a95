"""Each demo script runs to completion.  A demo writes its CSVs next to its
own file, so it runs from a copy in tmp_path and nothing lands in the tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
