"""Benchmark distributions, the two-point mixing law and the moment-matched
smoothing construction.

Reproducibility contract: every sampler is a pure function of
``(parameters, n, seed)``.  Derived randomness uses :func:`substream`, which
splits a root seed into named, order-independent child streams, so parallel
replicates never share or race a generator.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Optional

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


def substream(root_seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Named child generator of a root seed.

    The child is keyed by (crc32(name), index), so replicate ``index`` of a
    given purpose always sees the same stream regardless of evaluation order.
    """
    key = (zlib.crc32(name.encode("utf-8")), int(index))
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=key))


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


def sample_gaussian(sigma, n: int, seed: int, mean=None) -> Sample:
    """n i.i.d. rows from 𝒩(mean, Σ)."""
    spd = SpdMatrix.coerce(sigma)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, spd.dim))
    x = z @ spd.sqrt()
    if mean is not None:
        x = x + np.asarray(mean, dtype=float)
    return Sample(x, seed=seed, label="gaussian")


def sample_portnoy(d: int, n: int, seed: int) -> Sample:
    """Scale-mixed normal X = u·Z with scalar u ∼ 𝒩(0,1) ⊥ Z ∼ 𝒩(0, I_d).

    Conditionally on u the row is 𝒩(0, u² I_d); unconditionally 𝔼X = 0 and
    Var X = I_d, with heavy fourth moments ( 𝔼x_j⁴ = 9 per coordinate).
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    u = rng.standard_normal(n)
    return Sample(z * u[:, None], seed=seed, label="portnoy_mixed")


def sample_symmetric_L(d: int, n: int, seed: int) -> Sample:
    """Isotropic symmetric rows L = c₁·Z̃ + c₂·Y(YᵀZ)/‖Y‖.

    Here Z̃, Z ∼ 𝒩(0, I_d) and Y has i.i.d. standardized double-exponential
    coordinates, all independent; c₁² = 1 − √(2/5) and c₂² = √(2/5), so
    Var L = I_d exactly.  The law is symmetric (all odd moments vanish) with
    non-Gaussian fourth moments: 𝔼L_j⁴ = 9.
    """
    rng = np.random.default_rng(seed)
    c1 = math.sqrt(1.0 - math.sqrt(0.4))
    c2 = 0.4 ** 0.25
    z_tilde = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    y = rng.laplace(0.0, _LAPLACE_SCALE, (n, d))
    proj = np.einsum("ij,ij->i", y, z) / np.linalg.norm(y, axis=1)
    return Sample(c1 * z_tilde + c2 * y * proj[:, None], seed=seed,
                  label="symmetric_L")


def sample_laplace_product(d: int, n: int, seed: int) -> Sample:
    """Product measure with standardized double-exponential coordinates."""
    rng = np.random.default_rng(seed)
    return Sample(rng.laplace(0.0, _LAPLACE_SCALE, (n, d)), seed=seed,
                  label="laplace_product")


def sample_exponential_centered(d: int, n: int, seed: int) -> Sample:
    """Product measure with Exp(1) − 1 coordinates (skewed, variance 1)."""
    rng = np.random.default_rng(seed)
    return Sample(rng.exponential(1.0, (n, d)) - 1.0, seed=seed,
                  label="exponential_centered")


FAMILIES = ("gaussian", "portnoy_mixed", "symmetric_L", "laplace_product",
            "exponential_centered", "user_csv")


@dataclass
class DistributionSpec:
    """Description of a benchmark distribution.

    ``params`` is family-specific: ``{"cov": [[...]]}`` (optional, default
    I_d) and ``{"mean": [...]}`` for ``gaussian``; ``{"path": ...}`` for
    ``user_csv``; empty for the rest.
    """

    family: str
    d: int
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of "
                             f"{FAMILIES}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.family == "gaussian" and "cov" in self.params:
            cov = np.asarray(self.params["cov"], dtype=float)
            if cov.shape != (self.d, self.d):
                raise ValueError("cov shape does not match d")
            SpdMatrix(cov)  # validates SPD
        if self.family == "user_csv" and "path" not in self.params:
            raise ValueError("user_csv requires params['path']")

    # known population covariance, or None when only data is available
    def covariance(self) -> Optional[np.ndarray]:
        if self.family == "gaussian":
            cov = self.params.get("cov")
            return np.asarray(cov, dtype=float) if cov is not None else np.eye(self.d)
        if self.family == "user_csv":
            return None
        return np.eye(self.d)

    def sample(self, n: int, seed: Optional[int] = None) -> Sample:
        s = seed if seed is not None else self.seed
        if s is None:
            raise ValueError("no seed: set DistributionSpec.seed or pass one")
        if self.family == "gaussian":
            cov = self.covariance()
            return sample_gaussian(cov, n, s, mean=self.params.get("mean"))
        if self.family == "portnoy_mixed":
            return sample_portnoy(self.d, n, s)
        if self.family == "symmetric_L":
            return sample_symmetric_L(self.d, n, s)
        if self.family == "laplace_product":
            return sample_laplace_product(self.d, n, s)
        if self.family == "exponential_centered":
            return sample_exponential_centered(self.d, n, s)
        # user_csv: n rows resampled (or all rows if n matches)
        data = Sample.from_csv(self.params["path"], label="user_csv")
        if data.dim != self.d:
            raise ValueError(f"CSV has dim {data.dim}, spec says {self.d}")
        if n == data.n:
            return data
        rng = np.random.default_rng(s)
        idx = rng.integers(0, data.n, size=n)
        return Sample(data.data[idx], seed=s, label="user_csv")


# ---------------------------------------------------------------------------
# moment-matched construction Y = Z + α·X̃
# ---------------------------------------------------------------------------


def construct_Y(x: Sample, beta: float, seed: int,
                spec: Optional[DistributionSpec] = None,
                sigma: Optional[np.ndarray] = None) -> Sample:
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
    ``sigma`` overrides the covariance used for Z (defaults to ``spec``'s
    population covariance when known, else the sample covariance of ``x``).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    n, d = x.n, x.dim
    if sigma is None:
        sigma = spec.covariance() if spec is not None else None
    if sigma is None:
        sigma = x.covariance()
    spd = SpdMatrix(np.asarray(sigma))  # raises if not SPD
    if spd.dim != d:
        raise ValueError("covariance dimension does not match the sample")

    law = alpha_law(beta)
    rng_z = substream(seed, "construct_Y:z")
    rng_alpha = substream(seed, "construct_Y:alpha")
    rng_copy = substream(seed, "construct_Y:copy")

    z = rng_z.standard_normal((n, d)) @ (beta * spd.sqrt())
    alpha = law.sample(rng_alpha, n)
    if spec is not None and spec.family != "user_csv":
        copy_seed = int(rng_copy.integers(0, 2 ** 63 - 1))
        x_tilde = spec.sample(n, seed=copy_seed).data
    else:
        half = n // 2
        if half < 1:
            raise ValueError("need at least 2 rows to form a half-split copy")
        idx = rng_copy.integers(half, n, size=n)
        x_tilde = x.data[idx]
    return Sample(z + alpha[:, None] * x_tilde, seed=seed,
                  label=(x.label + ":Y").lstrip(":"))
