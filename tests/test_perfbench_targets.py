"""The benchmark's tracer wraps crossgen functions and methods by name, and
its workloads call crossgen functions directly, so a rename in crossgen
would break the benchmark; its self-check fails on a program change that
breaks the benchmark's own checks."""

import ast
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


def _crossgen_attribute_reads(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for every ``alias.attribute`` in ``path`` whose
    alias is bound by an import of crossgen or one of its modules."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "crossgen" and not node.level:
            aliases.update((a.asname or a.name, f"crossgen.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update((a.asname or "crossgen", a.name if a.asname else "crossgen")
                           for a in node.names if a.name.split(".")[0] == "crossgen")
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def test_every_crossgen_name_the_benchmark_reads_resolves():
    reads = set().union(*(_crossgen_attribute_reads(path)
                          for path in sorted((ROOT / "perfbench").glob("*.py"))))
    missing = sorted(f"{module}.{attr}" for module, attr in reads
                     if not hasattr(importlib.import_module(module), attr))
    # the workloads read pipeline paths and loaders, dataset constants and
    # the metric functions this way
    assert {("crossgen.pipeline", "checkpoint_path"), ("crossgen.toydata", "payload"),
            ("crossgen.checkpoint", "load_checkpoint")} <= reads
    assert len(reads) >= 38 and not missing, missing


@pytest.mark.slow
def test_benchmark_self_check_passes():
    # op set, repeatable counts and metric units, on every workload at tiny size
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
