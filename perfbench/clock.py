"""Timing in reference seconds on a machine whose speed drifts.

On a shared VM the process runs up to about 50% slower for spells of
seconds to minutes, in wall and CPU time alike. A fixed calibration kernel
(small matmuls, elementwise ufuncs and Python object churn, like the
program's own mix) slows down with it. ``Clock.measure`` samples the
kernel's speed before and after each unit of work, and every
``SAMPLE_PERIOD_S`` during it from a ``SIGALRM`` handler (which Python runs
between bytecodes of the main thread). The unit's wall time, less the time
spent in the handler, is scaled by the mean of ``REFERENCE_S / kernel time``
over those samples: the time the unit would take with the kernel at its
reference speed. On a quiet machine that is close to wall time; raw wall
times are kept alongside.

The kernel depends on nothing in crossgen, so a change to the program
cannot move it.
"""

from __future__ import annotations

import signal
from collections import defaultdict
from time import perf_counter

import numpy as np

# kernel time (fastest of three) on a 2-vCPU x86_64 VM, numpy 2.4 with
# OpenBLAS 0.3.31 on one thread, at its quiet speed
REFERENCE_S = 1.35e-3
SAMPLE_PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 192))
_W = _rng.standard_normal((192, 192)) * 0.05


def kernel() -> list:
    x, trail = _X, []
    for _ in range(12):
        h = x @ _W
        x = h / (1.0 + np.exp(-h))
        trail.append({"h": x, "shape": [x.shape, x.ndim]})
    return trail


def kernel_s() -> float:
    """Fastest of three runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Measures named units of work in raw and reference seconds."""

    def __init__(self):
        self.raw: dict = defaultdict(list)
        self.ref: dict = defaultdict(list)
        self.kernel: list[float] = []
        self._last = None
        self._during: list[float] = []
        self._handler_s = 0.0

    def _calibrate(self) -> float:
        k = kernel_s()
        self.kernel.append(k)
        return k

    def _sample(self, signum, frame) -> None:
        # the first run warms the caches the interrupted work had filled
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        self._during.append(t2 - t1)
        self._handler_s += t2 - t0

    def measure(self, name, fn, *args, **kwargs):
        """Run ``fn`` as unit ``name``; return its result. The kernel run
        after one unit also serves as the one before the next."""
        before = self._last if self._last is not None else self._calibrate()
        self._during, self._handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            elapsed = perf_counter() - t0 - self._handler_s
            self._last = after = self._calibrate()
            self.kernel.extend(self._during)
            speeds = [REFERENCE_S / k for k in [before, after] + self._during]
            self.raw[name].append(elapsed)
            self.ref[name].append(elapsed * sum(speeds) / len(speeds))

    def summary(self) -> dict:
        k = sorted(self.kernel) or [0.0]
        return {"reference_s": REFERENCE_S, "samples": len(self.kernel),
                "min_s": k[0], "median_s": k[len(k) // 2], "max_s": k[-1]}
