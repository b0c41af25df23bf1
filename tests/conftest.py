"""Fixtures shared by the sampler tests."""

import threading
from collections import Counter

import numpy as np
import pytest

from crossgen import diffusion
from crossgen import tensor as T


@pytest.fixture
def two_cpus(monkeypatch):
    """A machine with two CPUs, whatever this one has: a reverse loop takes
    its threaded path once each thread gets THREAD_MIN_ROWS rows."""
    monkeypatch.setattr(diffusion, "_cpus", lambda: 2)


@pytest.fixture
def step_threads(monkeypatch):
    """The thread ident of every noise prediction the samplers make (each
    call of a function ``Denoiser.array_forward`` returned), in call order."""
    threads = []
    array_forward = diffusion.Denoiser.array_forward

    def recording(self, *args, **kwargs):
        eps = array_forward(self, *args, **kwargs)

        def call(*a, **k):
            threads.append(threading.get_ident())
            return eps(*a, **k)

        return call

    monkeypatch.setattr(diffusion.Denoiser, "array_forward", recording)
    return threads


@pytest.fixture
def silu_edges(monkeypatch):
    """How many ``silu_kernel`` calls since the last ``clear()`` took an
    input reaching below -700 (its overflow branch), and how many one
    holding a NaN."""
    seen = Counter()
    kernel = T.silu_kernel

    def spy(x, s, out=None):
        seen["below -700"] += bool(np.any(x < -700.0))
        seen["nan"] += bool(np.isnan(x).any())
        return kernel(x, s, out)

    monkeypatch.setattr(T, "silu_kernel", spy)
    return seen
