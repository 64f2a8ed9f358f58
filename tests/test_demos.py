"""The narrative scripts under ``demos/`` run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ganitprep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(Path(ganitprep.__file__).resolve().parent.parent)


def test_readme_lists_every_demo():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert DEMOS and all(f"python demos/{script.name}" in readme for script in DEMOS)


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_script_runs(script, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
