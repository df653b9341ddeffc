"""cltcert: computable finite-sample certificates for multivariate CLT
accuracy and the nonparametric bootstrap.

The package has five layers:

* :mod:`cltcert.tensors` — moment tensors in Sym² form, SPD covariance
  wrappers, tensor norms (Frobenius / symmetric operator), Gaussian-weighted
  Hermite integrals and the CSV sample container;
* :mod:`cltcert.samplers` — named seed substreams, the Efron resample-count
  kernel, the benchmark distribution zoo and the two-point mixing law
  behind the third-moment-matching construction;
* :mod:`cltcert.engine` — the bound engine proper: explicit Berry–Esseen-type
  bounds over Euclidean balls and half-spaces, the symmetric-input variant,
  bootstrap accuracy certificates, and score-test bounds;
* :mod:`cltcert.distances` — Monte-Carlo estimators of the uniform distances
  the bounds control, plus scaling and anti-concentration experiments;
* :mod:`cltcert.bootstrap` — Efron resampling, bootstrap quantiles, the
  bootstrap score test and elliptical confidence regions.

A command-line front end lives in :mod:`cltcert.cli` (installed as
``cltcert``).

Set ``CLTCERT_THREADS`` to cap the BLAS thread count; it is applied before
numpy loads, so it must be set in the environment, not from Python.
"""

import os as _os

_threads = _os.environ.get("CLTCERT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from cltcert import bootstrap, distances, engine, samplers, tensors
from cltcert.tensors import (
    MomentTensor,
    OperatorNormResult,
    Sample,
    SpdMatrix,
    empirical_moment,
    frobenius_norm,
    hermite_interval_integral,
    operator_norm,
    whiten,
)

__version__ = "0.1.0"

__all__ = [
    "bootstrap",
    "distances",
    "engine",
    "samplers",
    "tensors",
    "MomentTensor",
    "OperatorNormResult",
    "Sample",
    "SpdMatrix",
    "empirical_moment",
    "frobenius_norm",
    "hermite_interval_integral",
    "operator_norm",
    "whiten",
    "__version__",
]
