"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """Run fn() under tracemalloc: (its result, the peak bytes traced)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    return _traced_peak
