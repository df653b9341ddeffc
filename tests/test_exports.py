"""Every name a cltcert module exports resolves.

The benchmark's tracer wraps each module's functions by their ``__all__``,
so a name left there after its function is deleted would hide a missing
function instead of failing.
"""

import importlib

import pytest


@pytest.mark.parametrize("name", (
    "cltcert", "cltcert.tensors", "cltcert.samplers", "cltcert.engine",
    "cltcert.distances", "cltcert.bootstrap"))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, (name, missing)
