"""Shared test helpers."""

import tracemalloc

import pytest

from cltcert import distances


@pytest.fixture
def run_traced():
    """Return a function that calls ``fn()`` under ``tracemalloc`` and
    returns its value and the peak traced memory during the call, in
    bytes."""
    def run(fn):
        tracemalloc.start()
        try:
            value = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak
    return run


@pytest.fixture
def projection_blocks(monkeypatch):
    """The widths of the blocks of directions that the half-space search
    projects onto, in order, filled in as ``delta_H_hat`` runs.

    Each projection is a column of its block's C-order (rows, width)
    product, so its stride gives the block's width, and a block is that
    many projections in a row."""
    widths = []
    project = distances._projections

    def spy(xa, xb, dirs):
        left = 0
        for a, b in project(xa, xb, dirs):
            if not left:
                left = a.strides[0] // a.itemsize
                widths.append(left)
            assert b.strides == a.strides
            left -= 1
            yield a, b
    monkeypatch.setattr(distances, "_projections", spy)
    return widths
