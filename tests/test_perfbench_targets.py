"""The benchmark's tracer wraps crossgen functions and methods by name, so a
rename in crossgen would break every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
