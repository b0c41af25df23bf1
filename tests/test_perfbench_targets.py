"""The benchmark's tracer wraps crossgen functions and methods by name, so a
rename in crossgen would break every traced benchmark run; its self-check
fails on a program change that breaks the benchmark's own checks."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_in_crossgen():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"crossgen.{module_name}")
        owner, _, name = attr.rpartition(".")
        if owner:  # a method must be defined on the class itself
            found = name in vars(getattr(module, owner, object))
        else:
            found = hasattr(module, name)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert len(tracer.TARGETS) > 0 and not missing, missing


@pytest.mark.slow
def test_benchmark_self_check_passes():
    # op set, repeatable counts and metric units, on every workload at tiny size
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
