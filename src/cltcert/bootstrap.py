"""Efron bootstrap, score tests, and elliptical confidence regions.

The kit works on user-supplied per-observation score matrices rather than
model objects.  Finite-sample certificates from the bound engine can be
attached to every test decision when the caller supplies the sub-Gaussian
variance factor σ²; a finite sample cannot certify that factor, so it is
never estimated from the data.  A result carries what the test computed,
not the configuration it was called with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .engine import (
    BoundBreakdown,
    InfeasibleError,
    MomentSummary,
    bootstrap_delta,
    bootstrap_summary,
    delta_R,
    delta_W,
    score2_bound,
    score_summary,
)
from . import tensors
from .samplers import DistributionSpec, _resample_counts, substream
from .tensors import Sample, SpdMatrix

__all__ = [
    "BootstrapResult",
    "CoverageResult",
    "LevelResult",
    "ScoreTestResult",
    "bootstrap_ball_quantile",
    "bootstrap_score_test",
    "chi2_quantile",
    "elliptical_coverage_experiment",
    "rao_score_test",
    "score_level_experiment",
]

MIN_REPLICATES = 200

# least number of pilot rows the coverage certificate's moments come from
COVERAGE_PILOT_N = 20_000


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def _check_resampling(alpha: float, B: int) -> None:
    _check_alpha(alpha)
    if B < MIN_REPLICATES:
        raise ValueError(f"B must be >= {MIN_REPLICATES}, got {B}")


def _rate(hits: int, trials: int) -> tuple[float, float]:
    """Hit rate over ``trials`` and its binomial standard error."""
    rate = hits / trials
    return rate, math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)


def _order_stat_quantile(replicates: np.ndarray, alpha: float) -> float:
    """Empirical (1−α)-quantile, inf-form: the ⌈(1−α)B⌉-th order statistic."""
    b = replicates.size
    k = math.ceil((1.0 - alpha) * b)
    k = min(max(k, 1), b)
    return float(np.sort(replicates)[k - 1])


def _resample_means(centered: np.ndarray, b: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``b`` Efron resample means of the centered rows (conditional mean 0,
    covariance Σ̂/n), from ``_resample_counts`` in row chunks of at most
    ``tensors.CHUNK_CELLS`` cells: the same draws as one b×n draw.  Every
    chunk counts into one float block allocated per call, so beyond the
    b×d means the working set is that block and one chunk's uint32 draw,
    about 12 bytes per budget cell.  The uint32 draw needs n < 2³²."""
    n = centered.shape[0]
    step = max(1, tensors.CHUNK_CELLS // n)
    block = np.empty(min(step, b) * n)
    means = np.empty((b, centered.shape[1]))
    for i in range(0, b, step):
        m = min(step, b - i)
        np.matmul(_resample_counts(n, m, rng, block), centered,
                  out=means[i:i + m])
    means /= n
    return means


def _score_bootstrap(rows: np.ndarray, b: int, alpha: float,
                      rng: np.random.Generator):
    """Score statistic ‖Σᵢsᵢ‖²/n of the raw rows and the (1−α)-quantile of
    its ``b`` bootstrap replicates on the centered rows."""
    n = rows.shape[0]
    total = rows.sum(axis=0)
    statistic = float(np.dot(total, total)) / n
    means = _resample_means(rows - rows.mean(axis=0), b, rng)
    replicates = n * np.sum(means * means, axis=1)
    return statistic, _order_stat_quantile(replicates, alpha)


def _ball_bootstrap(centered: np.ndarray, w_half: np.ndarray, b: int,
                    alpha: float, rng: np.random.Generator):
    """The ``b`` replicates √n‖W^{1/2}X̄*‖ of the centered rows' Efron
    resample means, and their (1−α)-quantile."""
    means = _resample_means(centered, b, rng)
    stats = math.sqrt(centered.shape[0]) * np.linalg.norm(means @ w_half,
                                                          axis=1)
    return stats, _order_stat_quantile(stats, alpha)


def _certify(build):
    """``(build(), None)``, or ``(None, reason)`` when the certificate's
    feasibility condition fails; any other error propagates."""
    try:
        return build(), None
    except InfeasibleError as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# bootstrap ball quantile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Replicate values plus the requested empirical quantile."""

    replicates: np.ndarray
    quantile: float
    certificate: Optional[BoundBreakdown] = None


def bootstrap_ball_quantile(s: Sample, w, alpha: float, B: int = 2000,
                            seed: int = 0,
                            sigma2: Optional[float] = None) -> BootstrapResult:
    """Quantile of the weighted-norm bootstrap statistic √n‖W^{1/2}X̄*‖.

    With σ² supplied, attaches the finite-sample accuracy certificate for
    the bootstrap ball approximation on the W^{1/2}-transformed data.
    """
    _check_resampling(alpha, B)
    if s.n < 2:  # every resample of a single row is that row
        raise ValueError(f"need at least 2 rows, got {s.n}")
    w_spd = SpdMatrix.coerce(w)
    if w_spd.dim != s.dim:
        raise ValueError("W dimension does not match the sample")
    certificate = None  # first, so that an invalid σ² fails before resampling
    if sigma2 is not None:
        ms = bootstrap_summary(s, sigma2=sigma2, weight=w_spd)
        certificate = bootstrap_delta(ms)
    stats, quantile = _ball_bootstrap(s.data - s.mean(), w_spd.sqrt(), B,
                                      alpha, substream(seed, "ball_quantile"))
    return BootstrapResult(replicates=stats, quantile=quantile,
                           certificate=certificate)


# ---------------------------------------------------------------------------
# score tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreTestResult:
    reject: bool
    statistic: float        # R̃ = ‖s‖²/n, or Rao's sᵀI⁻¹s; s the raw score sum
    threshold: float        # bootstrap quantile t*_α, or Rao's χ²_d quantile
    certificate: Optional[BoundBreakdown] = None
    certificate_error: Optional[str] = None  # bootstrap test only


def bootstrap_score_test(scores: Sample, alpha: float, B: int = 2000,
                         seed: int = 0, sigma2_s: Optional[float] = None,
                         info=None) -> ScoreTestResult:
    """Bootstrap score test: reject when R̃ exceeds the resampled quantile.

    R̃ = ‖Σᵢsᵢ/√n‖² uses the raw score sum; the replicates R* resample the
    centered scores.  When σ_s² is supplied the level certificate is
    attached (or its infeasibility is reported without aborting the test).
    """
    _check_resampling(alpha, B)
    if scores.n < 2:
        raise ValueError("need at least 2 score rows")
    certificate, cert_error = None, None
    if sigma2_s is not None:  # before the resampling, as in the ball quantile
        certificate, cert_error = _certify(lambda: delta_R(
            score_summary(scores, sigma2_s=sigma2_s, info=info)))
    rng = substream(seed, "score_boot", 0)
    statistic, threshold = _score_bootstrap(scores.data, B, alpha, rng)
    return ScoreTestResult(reject=statistic > threshold, statistic=statistic,
                           threshold=threshold, certificate=certificate,
                           certificate_error=cert_error)


def chi2_quantile(alpha: float, d: int) -> float:
    """(1−α)-quantile of χ²_d via the inverse regularized incomplete gamma."""
    _check_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    from scipy import special  # deferred: scipy's import dominates start-up
    return float(2.0 * special.gammaincinv(d / 2.0, 1.0 - alpha))


def rao_score_test(scores: Sample, info, alpha: float,
                   moments: Optional[MomentSummary] = None) -> ScoreTestResult:
    """Classical score test of the total score against the χ²_d quantile.

    ``info`` is the Fisher information of the full sample.  When a moment
    summary of the normalized scores is supplied, the χ²-level certificate
    is attached.
    """
    _check_alpha(alpha)
    info_spd = SpdMatrix.coerce(info)
    if info_spd.dim != scores.dim:
        raise ValueError("information matrix dimension mismatch")
    s = scores.data.sum(axis=0)
    statistic = float(s @ np.linalg.solve(info_spd.matrix, s))
    threshold = chi2_quantile(alpha, scores.dim)
    certificate = score2_bound(moments) if moments is not None else None
    return ScoreTestResult(reject=statistic > threshold, statistic=statistic,
                           threshold=threshold, certificate=certificate)


# ---------------------------------------------------------------------------
# level / coverage experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelResult:
    level: float
    stderr: float


def score_level_experiment(d: int, n: int, alpha: float, B: int, trials: int,
                           seed: int = 0) -> LevelResult:
    """Empirical level of the bootstrap score test under the null, on
    i.i.d. standard Gaussian scores (a σ_s-free run)."""
    _check_resampling(alpha, B)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 2:  # every resample of a single row is that row
        raise ValueError(f"n must be >= 2, got {n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rejections = 0
    for trial in range(trials):
        rng = substream(seed, "score_level", trial)
        rows = rng.standard_normal((n, d))
        statistic, threshold = _score_bootstrap(rows, B, alpha, rng)
        rejections += statistic > threshold
    level, stderr = _rate(rejections, trials)
    return LevelResult(level=level, stderr=stderr)


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    stderr: float
    certificate: Optional[BoundBreakdown] = None
    certificate_error: Optional[str] = None


def elliptical_coverage_experiment(spec: DistributionSpec, w, alpha: float,
                                   n: int, B: int, trials: int, seed: int = 0,
                                   sigma2: Optional[float] = None) -> CoverageResult:
    """Coverage of the bootstrap ellipsoid {μ : √n‖W^{1/2}(X̄−μ)‖ ≤ q*_α}.

    With σ² supplied, attaches the coverage-error certificate at the
    experiment's ``n``, with moments estimated from a pilot sample of
    ``max(n, COVERAGE_PILOT_N)`` rows; an infeasible certificate condition is
    reported in ``certificate_error`` and does not abort the empirical run.
    """
    _check_resampling(alpha, B)
    if n < 2:  # every resample of a single row is that row
        raise ValueError(f"n must be >= 2, got {n}")
    if trials < 200:
        raise ValueError("trials must be >= 200 for a stable coverage rate")
    w_spd = SpdMatrix.coerce(w)
    if w_spd.dim != spec.d:
        raise ValueError("W dimension does not match the distribution")
    w_half = w_spd.sqrt()
    # before the trials, so that an invalid σ² fails before they are spent;
    # the pilot draws from its own substream
    certificate, cert_error = None, None
    if sigma2 is not None:
        pilot_rng = substream(seed, "coverage_pilot", 0)
        pilot = spec.sample(max(n, COVERAGE_PILOT_N),
                            seed=int(pilot_rng.integers(0, 2 ** 63 - 1)))
        certificate, cert_error = _certify(lambda: delta_W(replace(
            bootstrap_summary(pilot, sigma2=sigma2, weight=w_spd),
            n=n)))

    hits = 0
    for trial in range(trials):
        rng = substream(seed, "coverage", trial)
        data = spec.sample(n, seed=int(rng.integers(0, 2 ** 63 - 1))).data
        xbar = data.mean(axis=0)
        _, q_star = _ball_bootstrap(data - xbar, w_half, B, alpha, rng)
        # every family has mean 0
        observed = math.sqrt(n) * float(np.linalg.norm(w_half @ xbar))
        hits += observed <= q_star
    coverage, stderr = _rate(hits, trials)
    return CoverageResult(coverage=coverage, stderr=stderr,
                          certificate=certificate, certificate_error=cert_error)
