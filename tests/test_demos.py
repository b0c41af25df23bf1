"""Every script under demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"04_multi_prompt_diffusion.py", "05_joint_generation.py"}


@pytest.mark.parametrize("script", [
    pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in sorted((ROOT / "demos").glob("*.py"))])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
