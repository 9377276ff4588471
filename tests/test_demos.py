"""Every walkthrough in demos/ runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW_DEMOS = {"03_pretrain_and_decode.py", "04_initialization_comparison.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path.name, marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
    for path in sorted((ROOT / "demos").glob("*.py"))])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the one argument is an output directory, for the demos that write files
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
