"""crossgen benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload {train,generate,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next to
this directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` (times in reference seconds, see
clock.py), the per-layer metrics of a traced run with ``--trace 1``. The line before it is ``{"info": ...}``: environment,
output digests and values reported for information only. Spans of a traced
run are written to ``.bench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads. The matrices are small (at
# most 64x192), and two threads measured barely faster than one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "generate", "evaluate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_crossgen():
    """Import crossgen from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "crossgen" / "__init__.py").is_file():
        raise ImportError(f"no crossgen package under {src}")
    sys.path.insert(0, str(src))
    import crossgen
    if Path(crossgen.__file__).resolve().parent != (src / "crossgen").resolve():
        raise ImportError(f"crossgen imported from {crossgen.__file__}, not {src}")
    return crossgen


def blas_info() -> dict:
    """BLAS library, version and the thread count it reports at run time."""
    import ctypes
    import numpy as np
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": deps.get("name"), "version": deps.get("version"),
           "threads_env": BLAS_THREADS, "threads_runtime": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out["threads_runtime"] = fn()
                break
    return out


def environment(loadavg) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_start": loadavg}


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    try:
        import_crossgen()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, info, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                             bool(args.trace), workloads.FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(loadavg), **info}
    if tracer is not None:
        path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        info["spans_file"] = str(path.relative_to(ROOT))
    for failure in info["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
