import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hdsf.hybrid import Trace


@pytest.fixture
def make_trace():
    """Build a uniformly sampled trace from named signal value lists."""

    def build(dt: float, **signals) -> Trace:
        lengths = {len(v) for v in signals.values()}
        assert len(lengths) == 1
        n = lengths.pop()
        return Trace(
            mode_runs=[("M", 0)],
            signals={k: np.asarray(v, dtype=float) for k, v in signals.items()},
            events=[],
            dt=dt,
            n_samples=n,
        )

    return build


@pytest.fixture
def force_cpus(monkeypatch):
    """``force(n)``: make ``os.sched_getaffinity`` report ``n`` CPUs.

    The package reads no CPU count; tests use this to check that nothing
    it does, its outputs and its forks included, depends on one.
    """
    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return force


@pytest.fixture
def count_forks(monkeypatch):
    """The list that gains one entry per ``os.fork`` this process calls."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks
