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

    Each projection is a view into its block, so a new base marks a new
    block; holding the last base keeps it from being reused."""
    widths = []
    project = distances._projections

    def spy(xa, xb, dirs):
        block = None
        for a, b in project(xa, xb, dirs):
            if a.base is not block:
                block = a.base
                widths.append(0)
            widths[-1] += 1
            yield a, b
    monkeypatch.setattr(distances, "_projections", spy)
    return widths
