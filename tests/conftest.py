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
