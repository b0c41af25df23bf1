"""Self-check of the benchmark at tiny size (about a minute).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json, untraced and traced, it checks that:
the run reports no failed operation; every end-to-end metric in
BENCHMARK.json, and no other, is emitted with its unit; every per-layer
metric is emitted with a unit by the traced run; two traced runs give
identical counts; span self times sum to the traced wall time; and the
tracer leaves no wrapper bound after it exits. Exits 0 when every check
holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (pins BLAS threads before numpy loads)

COUNT_SUFFIXES = (".calls", ".rows", ".bytes")


def main() -> int:
    run.import_crossgen()
    sys.path.insert(0, str(HERE))
    import tracer
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
        print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)

    expect(e2e_units == workloads.END_TO_END,
           "BENCHMARK.json end_to_end names and units match the workloads' metrics")
    expect(layer_units == workloads.per_layer_units(),
           "BENCHMARK.json per_layer names and units match the tracer's metrics")
    work = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    try:
        for w in spec["workloads"]:
            name = w["name"]
            result, _, _ = workloads.run(name, 1, 0.0, False, workloads.TINY, work / name)
            expect(result["failed"] == 0 and result["correct"],
                   f"{name}: {result['attempted']} operations, none failed")
            got = result["metrics"]
            expect(set(got) == set(e2e_units)
                   and all(got[k]["unit"] == e2e_units[k] for k in got),
                   f"{name}: every end-to-end metric with its unit")

            counts = []
            for attempt in range(2):
                result, _, tr = workloads.run(name, 1, 0.0, True, workloads.TINY,
                                              work / f"{name}-trace{attempt}")
                got = result["metrics"]
                counts.append({k: v["value"] for k, v in got.items()
                               if k.endswith(COUNT_SUFFIXES) or k.startswith("tensor.tape_nodes")})
                expect(result["failed"] == 0, f"{name} traced: no failed operation")
                expect(set(got) == set(layer_units)
                       and all(got[k]["unit"] == layer_units[k] for k in got),
                       f"{name} traced: every per-layer metric with its unit")
                wall, self_sum = got["trace.wall_s"]["value"], got["trace.self_sum_s"]["value"]
                expect(abs(wall - self_sum) <= 1e-3 + 0.01 * wall,
                       f"{name} traced: span self times {self_sum:.4f} s sum to wall {wall:.4f} s")
                left = tracer.leftover_wrappers()
                expect(not left, f"{name} traced: no wrapper left bound {left or ''}".rstrip())
            expect(counts[0] == counts[1], f"{name} traced: counts repeat exactly")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
