"""Fixtures shared by the sampler tests."""

import pytest

from crossgen import diffusion


@pytest.fixture
def two_cpus(monkeypatch):
    """A machine with two CPUs, whatever this one has: a reverse loop takes
    its threaded path once each thread gets THREAD_MIN_ROWS rows."""
    monkeypatch.setattr(diffusion, "_cpus", lambda: 2)
