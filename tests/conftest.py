import tracemalloc

import numpy as np
import pytest

from convsep.signal import SignalMetadata, TimeSeries


@pytest.fixture
def make_ts():
    """TimeSeries factory with default metadata."""

    def _make(data, sample_interval_s=1e-3, labels=None):
        data = np.asarray(data, dtype=np.float64)
        if labels is None:
            labels = tuple(f"ch{p + 1}" for p in range(data.shape[0]))
        return TimeSeries(data, SignalMetadata(sample_interval_s, labels))

    return _make


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): tracemalloc's peak while fn(*args) runs, in
    bytes above what was already traced. fn's result counts: it is still
    alive when the peak is read."""

    def _peak(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return _peak
