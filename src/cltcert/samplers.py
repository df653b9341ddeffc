"""Benchmark distributions, the two-point mixing law and the moment-matched
smoothing construction.

The benchmark families of :data:`FAMILIES` are fixed standardized laws:
centered, with covariance I_d.  Reproducibility contract: every sampler is a
pure function of ``(d, n, seed)``, and a seed that is not an integer (such as
``None``, which would draw OS entropy) is refused.  Derived randomness uses
:func:`substream`, which splits a root seed into named, order-independent
child streams, so parallel replicates never share or race a generator.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from cltcert.tensors import Sample, SpdMatrix

__all__ = [
    "TwoPointLaw",
    "DistributionSpec",
    "alpha_law",
    "sample_gaussian",
    "sample_portnoy",
    "sample_symmetric_L",
    "sample_laplace_product",
    "sample_exponential_centered",
    "construct_Y",
    "substream",
    "FAMILIES",
]

# the standardized double-exponential (variance 1) has scale 1/√2
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)


def _check_seed(seed) -> int:
    """``seed`` if it is an integer (not a bool), else ``ValueError``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return seed


def substream(root_seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Named child generator of a root seed.

    The child is keyed by (crc32(name), index), so replicate ``index`` of a
    given purpose always sees the same stream regardless of evaluation order.
    """
    key = (zlib.crc32(name.encode("utf-8")), int(index))
    return np.random.default_rng(
        np.random.SeedSequence(_check_seed(root_seed), spawn_key=key))


# kept out of __all__: the bench tracer wraps every exported name, and this
# kernel runs once per resample chunk
def _resample_counts(n: int, m: int, rng: np.random.Generator,
                     out: np.ndarray) -> np.ndarray:
    """m×n counts of ``m`` Efron resamples, written into ``out`` (float64,
    at least m·n cells, overwritten) and returned as an (m, n) view of it.

    Row r's n uniform index draws are shifted by r·n, so one ``np.add.at``
    over m·n cells counts every row.  The draws are uint32, so n < 2³² and
    m·n ≤ 2³² are required; below that numpy draws the same values, and
    leaves the generator in the same state, for uint32 as for int64.  The
    only block allocated here is the m×n uint32 draw: the counts go straight
    into the caller's float block, ready for a GEMM with no cast copy."""
    idx = rng.integers(0, n, size=(m, n), dtype=np.uint32)
    idx[1:] += np.arange(n, m * n, n, dtype=np.uint32)[:, None]
    counts = out[:m * n]
    counts.fill(0.0)
    np.add.at(counts, idx.reshape(-1), 1.0)
    return counts.reshape(m, n)


# ---------------------------------------------------------------------------
# two-point mixing law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPointLaw:
    """Law supported on two atoms {a, b} with P(a) = p, P(b) = 1 − p."""

    a: float
    b: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        mean = self.p * self.a + (1.0 - self.p) * self.b
        scale = max(abs(self.a), abs(self.b), 1.0)
        if abs(mean) > 1e-10 * scale:
            raise ValueError(f"two-point law is not centered (mean {mean:.3e})")

    def moment(self, k: int) -> float:
        return self.p * self.a ** k + (1.0 - self.p) * self.b ** k

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return np.where(u < self.p, self.a, self.b)


def alpha_law(beta: float) -> TwoPointLaw:
    """The minimal-support centered law with moments (0, 1−β², 1, …).

    The atoms are the two roots of x² − x/(1−β²) − (1−β²) = 0 and the
    probabilities make the mean vanish.  This pins the first three moments at
    (0, 1−β², 1) exactly; the fourth moment then equals
    (1−β²)² + (1−β²)^{-1}, the smallest value compatible with those three
    (the 3×3 moment Hankel determinant vanishes).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    bu2 = 1.0 - beta * beta  # variance of the law
    # roots of x² − (1/bu2)·x − bu2 = 0
    half_sum = 0.5 / bu2
    disc = math.sqrt(half_sum * half_sum + bu2)
    a = half_sum + disc
    b = half_sum - disc
    p = -b / (a - b)
    return TwoPointLaw(a=a, b=b, p=p)


# ---------------------------------------------------------------------------
# distribution zoo
# ---------------------------------------------------------------------------


def sample_gaussian(sigma, n: int, seed: int) -> Sample:
    """n i.i.d. rows from 𝒩(0, Σ)."""
    spd = SpdMatrix.coerce(sigma)
    rng = np.random.default_rng(_check_seed(seed))
    return Sample(rng.standard_normal((n, spd.dim)) @ spd.sqrt())


def sample_portnoy(d: int, n: int, seed: int) -> Sample:
    """Scale-mixed normal X = u·Z with scalar u ∼ 𝒩(0,1) ⊥ Z ∼ 𝒩(0, I_d).

    Conditionally on u the row is 𝒩(0, u² I_d); unconditionally 𝔼X = 0 and
    Var X = I_d, with heavy fourth moments ( 𝔼x_j⁴ = 9 per coordinate).
    """
    rng = np.random.default_rng(_check_seed(seed))
    z = rng.standard_normal((n, d))
    u = rng.standard_normal(n)
    return Sample(z * u[:, None])


def sample_symmetric_L(d: int, n: int, seed: int) -> Sample:
    """Isotropic symmetric rows L = c₁·Z̃ + c₂·Y(YᵀZ)/‖Y‖.

    Here Z̃, Z ∼ 𝒩(0, I_d) and Y has i.i.d. standardized double-exponential
    coordinates, all independent; c₁² = 1 − √(2/5) and c₂² = √(2/5), so
    Var L = I_d exactly.  The law is symmetric (all odd moments vanish) with
    non-Gaussian fourth moments: 𝔼L_j⁴ = 9.
    """
    rng = np.random.default_rng(_check_seed(seed))
    c1 = math.sqrt(1.0 - math.sqrt(0.4))
    c2 = 0.4 ** 0.25
    z_tilde = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    y = rng.laplace(0.0, _LAPLACE_SCALE, (n, d))
    proj = np.einsum("ij,ij->i", y, z) / np.linalg.norm(y, axis=1)
    return Sample(c1 * z_tilde + c2 * y * proj[:, None])


def sample_laplace_product(d: int, n: int, seed: int) -> Sample:
    """Product measure with standardized double-exponential coordinates."""
    rng = np.random.default_rng(_check_seed(seed))
    return Sample(rng.laplace(0.0, _LAPLACE_SCALE, (n, d)))


def sample_exponential_centered(d: int, n: int, seed: int) -> Sample:
    """Product measure with Exp(1) − 1 coordinates (skewed, variance 1)."""
    rng = np.random.default_rng(_check_seed(seed))
    return Sample(rng.exponential(1.0, (n, d)) - 1.0)


# each benchmark family's sampler (d, n, seed) -> Sample
FAMILIES: dict[str, Callable[[int, int, int], Sample]] = {
    "gaussian": lambda d, n, seed: sample_gaussian(np.eye(d), n, seed),
    "portnoy_mixed": sample_portnoy,
    "symmetric_L": sample_symmetric_L,
    "laplace_product": sample_laplace_product,
    "exponential_centered": sample_exponential_centered,
}


@dataclass
class DistributionSpec:
    """One of the :data:`FAMILIES` in dimension ``d``."""

    family: str
    d: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of "
                             f"{tuple(FAMILIES)}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def covariance(self) -> np.ndarray:
        """Population covariance: every family is standardized to I_d."""
        return np.eye(self.d)

    def sample(self, n: int, seed: int) -> Sample:
        return FAMILIES[self.family](self.d, n, seed)


# ---------------------------------------------------------------------------
# moment-matched construction Y = Z + α·X̃
# ---------------------------------------------------------------------------


def construct_Y(x: Sample, beta: float, seed: int,
                spec: Optional[DistributionSpec] = None) -> Sample:
    """Smoothing construction Y_i = Z_i + α_i X̃_i matching moments 1–3 of X.

    Z_i ∼ 𝒩(0, β²·Var X) and α_i follows :func:`alpha_law`, independent of
    the independent copy X̃_i.  For centered X the first three moment tensors
    of Y equal those of X exactly in law: 𝔼α = 0 kills the mean and the
    Gaussian cross terms, 𝔼α² = 1−β² restores the covariance, 𝔼α³ = 1
    restores the third moment.

    The independent copy is drawn fresh from ``spec`` when one is supplied
    (parametric case).  For raw data, rows are resampled with replacement
    from the second half of ``x`` only — a disjoint half-split — so that X̃
    does not reuse the rows a caller will typically keep for estimation.
    Var X is ``spec``'s population covariance I_d, else the sample
    covariance of ``x``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    n, d = x.n, x.dim
    # raises if not SPD
    spd = SpdMatrix(spec.covariance() if spec is not None else x.covariance())
    if spd.dim != d:
        raise ValueError("covariance dimension does not match the sample")

    law = alpha_law(beta)
    rng_z = substream(seed, "construct_Y:z")
    rng_alpha = substream(seed, "construct_Y:alpha")
    rng_copy = substream(seed, "construct_Y:copy")

    z = rng_z.standard_normal((n, d)) @ (beta * spd.sqrt())
    alpha = law.sample(rng_alpha, n)
    if spec is not None:
        copy_seed = int(rng_copy.integers(0, 2 ** 63 - 1))
        x_tilde = spec.sample(n, seed=copy_seed).data
    else:
        half = n // 2
        if half < 1:
            raise ValueError("need at least 2 rows to form a half-split copy")
        idx = rng_copy.integers(half, n, size=n)
        x_tilde = x.data[idx]
    return Sample(z + alpha[:, None] * x_tilde)
