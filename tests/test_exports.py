"""Every name a cltcert module exports resolves, and so does every name the
benchmark's tracer hooks.

The benchmark's tracer wraps each module's functions by their ``__all__``,
so a name left there after its function is deleted would hide a missing
function instead of failing.  A hooked name that is renamed or deleted
would silently read 0 in a per-layer metric, so the tracer's tables are
checked against the package here, without installing the tracer.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from cltcert import bootstrap, engine, samplers
from cltcert.samplers import DistributionSpec
from cltcert.tensors import MomentTensor, OperatorNormResult, Sample

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the (module, function) pairs whose spans the tracer reads counts from
HOOKED = (("tensors", "operator_norm"), ("tensors", "empirical_moment"),
          ("distances", "ks_two_sample_1d"), ("engine", "optimize_beta"))


@pytest.mark.parametrize("name", (
    "cltcert", "cltcert.tensors", "cltcert.samplers", "cltcert.engine",
    "cltcert.distances", "cltcert.bootstrap"))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, (name, missing)


def _exported_function(mod, name):
    fn = getattr(mod, name, None)
    return inspect.isfunction(fn) and name in mod.__all__


def test_every_name_the_tracer_hooks_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    for name in tracing.BOUNDS | tracing.SUMMARIES:
        assert _exported_function(engine, name), name
    for name, params in tracing.RESAMPLERS.items():
        assert _exported_function(bootstrap, name), name
        signature = inspect.signature(getattr(bootstrap, name)).parameters
        assert all(p in signature for p in params if p is not None), name
    for module, name in HOOKED:
        mod = importlib.import_module(f"cltcert.{module}")
        assert _exported_function(mod, name), (module, name)
        assert tracing._hooks(module, name, getattr(mod, name)) != (
            None, None), (module, name)
    assert isinstance(Sample.__dict__["from_csv"], classmethod)
    assert inspect.isfunction(DistributionSpec.__dict__["sample"])
    assert {"iterations", "converged"} <= {
        f.name for f in dataclasses.fields(OperatorNormResult)}
    assert "order" in {f.name for f in dataclasses.fields(MomentTensor)}


def test_resample_kernel_is_not_exported():
    # the tracer would wrap it and count every resample chunk as a sampler
    # call, moving resampling time into the sampler metrics
    assert "_resample_counts" not in samplers.__all__
