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

BLAS and LAPACK run on one thread unless ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` asks for more.  A call is
a short run of tall, thin products and small eigensolves, which a second
thread does not speed up, and every BLAS thread adds to the start-up that
each call pays.  Importing ``cltcert`` makes 1 the default of each of the
three variables, so a BLAS variable that is already set wins.  It must be
in the environment before numpy loads: a loaded BLAS keeps its thread
count.
"""

import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

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
