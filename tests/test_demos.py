"""Smoke runs of the demo scripts: each must finish cleanly."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pseudomode

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(tmp_path, demo):
    # a copy in tmp_path writes its out/ directory there, not into demos/
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = Path(pseudomode.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
