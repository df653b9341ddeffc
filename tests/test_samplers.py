"""Distribution zoo, two-point law, construction Y, concentration helpers."""

import itertools
import json
import math

import numpy as np
import pytest

from cltcert import cli
from cltcert.samplers import (
    FAMILIES,
    DistributionSpec,
    TwoPointLaw,
    _resample_counts,
    alpha_law,
    construct_Y,
    sample_exponential_centered,
    sample_gaussian,
    sample_laplace_product,
    sample_portnoy,
    sample_symmetric_L,
    substream,
)
from cltcert.tensors import Sample


def moment_gap_in_se(x: np.ndarray, y: np.ndarray, order: int) -> float:
    """Max over tensor entries of |mean_x − mean_y| / SE(difference)."""
    d = x.shape[1]
    worst = 0.0
    for idx in itertools.product(range(d), repeat=order):
        px = np.prod([x[:, i] for i in idx], axis=0)
        py = np.prod([y[:, i] for i in idx], axis=0)
        se = math.sqrt(px.var() / px.size + py.var() / py.size)
        gap = abs(px.mean() - py.mean())
        worst = max(worst, gap / se if se > 0 else (0.0 if gap == 0 else math.inf))
    return worst


# ---------------------------------------------------------------------------
# alpha law
# ---------------------------------------------------------------------------

def test_alpha_law_half_beta_squared_example():
    law = alpha_law(math.sqrt(0.5))  # β² = 0.5, so the variance is 0.5
    assert law.a == pytest.approx(1.0 + math.sqrt(1.5), rel=1e-12)
    assert law.b == pytest.approx(1.0 - math.sqrt(1.5), rel=1e-12)
    assert law.p == pytest.approx(0.0917517095, abs=1e-9)
    assert law.moment(4) == pytest.approx(2.25, rel=1e-12)  # 0.25 + 2


def test_alpha_law_moments_random_betas():
    rng = np.random.default_rng(5)
    for beta in rng.uniform(0.05, 0.99, size=20):
        law = alpha_law(float(beta))
        bu2 = 1.0 - beta ** 2
        assert law.moment(1) == pytest.approx(0.0, abs=1e-10)
        assert law.moment(2) == pytest.approx(bu2, rel=1e-10)
        assert law.moment(3) == pytest.approx(1.0, rel=1e-10)
        assert law.moment(4) == pytest.approx(bu2 ** 2 + 1.0 / bu2, rel=1e-9)


def test_alpha_law_hankel_determinant_vanishes():
    rng = np.random.default_rng(6)
    for beta in rng.uniform(0.05, 0.99, size=20):
        law = alpha_law(float(beta))
        m = [law.moment(k) for k in range(5)]
        hankel = np.array([[m[0], m[1], m[2]],
                           [m[1], m[2], m[3]],
                           [m[2], m[3], m[4]]])
        assert abs(np.linalg.det(hankel)) < 1e-9


def test_alpha_law_domain_and_sampling():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            alpha_law(bad)
    law = alpha_law(0.8)
    draws = law.sample(np.random.default_rng(0), 200_000)
    assert set(np.unique(draws)) == {law.a, law.b}
    assert draws.mean() == pytest.approx(0.0, abs=4 * draws.std() / math.sqrt(draws.size))


def test_two_point_law_rejects_uncentered():
    with pytest.raises(ValueError):
        TwoPointLaw(a=1.0, b=-1.0, p=0.7)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_gaussian_sampler_matches_target_covariance():
    s = sample_gaussian(np.diag([1.0, 4.0]), 200_000, seed=1)
    var = s.data.var(axis=0)
    assert var[0] == pytest.approx(1.0, abs=0.03)
    assert var[1] == pytest.approx(4.0, abs=0.12)
    shifted = sample_gaussian(np.eye(2), 50_000, seed=2, mean=[3.0, -1.0])
    np.testing.assert_allclose(shifted.mean(), [3.0, -1.0], atol=0.05)


def test_portnoy_moments():
    s = sample_portnoy(5, 400_000, seed=3)
    # 𝔼‖X‖² = d, Var X = I within MC error
    assert (s.data ** 2).sum(axis=1).mean() == pytest.approx(5.0, abs=0.08)
    np.testing.assert_allclose(s.covariance(), np.eye(5), atol=0.05)
    # per-coordinate fourth moment 𝔼u⁴·𝔼z⁴ = 9
    m4 = (s.data ** 4).mean(axis=0)
    assert np.all(np.abs(m4 - 9.0) < 1.0)


def test_symmetric_L_moments():
    s = sample_symmetric_L(2, 1_000_000, seed=4)
    np.testing.assert_allclose(s.mean(), 0.0, atol=0.01)
    np.testing.assert_allclose(s.covariance(), np.eye(2), atol=0.02)
    # odd moments vanish by symmetry
    assert abs((s.data[:, 0] ** 3).mean()) < 0.05
    # diagonal fourth moment: 3·𝔼(c₁²+c₂²Y²)² = 9 (Y standardized Laplace)
    m4 = (s.data ** 4).mean(axis=0)
    assert np.all(np.abs(m4 - 9.0) < 1.0)


def test_laplace_product_moments():
    s = sample_laplace_product(3, 400_000, seed=5)
    np.testing.assert_allclose(s.covariance(), np.eye(3), atol=0.03)
    m4 = (s.data ** 4).mean(axis=0)  # standardized Laplace kurtosis is 6
    assert np.all(np.abs(m4 - 6.0) < 0.6)


def test_exponential_centered_moments():
    s = sample_exponential_centered(2, 400_000, seed=6)
    np.testing.assert_allclose(s.mean(), 0.0, atol=0.01)
    np.testing.assert_allclose(s.covariance(), np.eye(2), atol=0.02)
    m3 = (s.data ** 3).mean(axis=0)  # central third moment of Exp(1) is 2
    assert np.all(np.abs(m3 - 2.0) < 0.15)


def test_samplers_are_bit_reproducible():
    for fn, args in [(sample_portnoy, (3, 100, 9)),
                     (sample_symmetric_L, (3, 100, 9)),
                     (sample_laplace_product, (3, 100, 9)),
                     (sample_exponential_centered, (3, 100, 9))]:
        np.testing.assert_array_equal(fn(*args).data, fn(*args).data)
    a = sample_gaussian(np.eye(2), 100, seed=9).data
    b = sample_gaussian(np.eye(2), 100, seed=9).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# DistributionSpec
# ---------------------------------------------------------------------------

def test_distribution_spec_round_trip_and_dispatch():
    # the CLI offers exactly the table's families, each standardized to I_d
    _, commands = cli._build_parser()
    family = next(a for p in commands for a in p.arguments
                  if a.dest == "family")
    assert family.choices == tuple(FAMILIES)
    for name, sampler in FAMILIES.items():
        spec = DistributionSpec(name, 3, seed=12)
        spec2 = DistributionSpec(spec.family, spec.d, spec.seed)
        s = spec.sample(64)
        assert s.data.shape == (64, 3)
        np.testing.assert_array_equal(s.data, spec2.sample(64).data)
        np.testing.assert_array_equal(s.data, sampler(3, 64, 12).data)
        np.testing.assert_array_equal(spec.covariance(), np.eye(3))


def test_distribution_spec_validation():
    for family in ("cauchy_product", "user_csv"):
        with pytest.raises(ValueError, match="unknown family"):
            DistributionSpec(family, 2)
    with pytest.raises(ValueError):
        DistributionSpec("gaussian", 0)
    with pytest.raises(ValueError, match="no seed"):
        DistributionSpec("gaussian", 2).sample(10)


# ---------------------------------------------------------------------------
# construction Y
# ---------------------------------------------------------------------------

def test_construct_Y_matches_first_three_moments_parametric():
    spec = DistributionSpec("exponential_centered", 2, seed=21)
    x = spec.sample(300_000)
    y = construct_Y(x, beta=0.8, seed=22, spec=spec)
    assert y.n == x.n and y.dim == x.dim
    for order in (1, 2, 3):
        assert moment_gap_in_se(x.data, y.data, order) < 4.0


def test_construct_Y_gaussian_third_moment_vanishes():
    spec = DistributionSpec("gaussian", 2, seed=23)
    x = spec.sample(200_000)
    y = construct_Y(x, beta=0.6, seed=24, spec=spec)
    m3 = np.einsum("ni,nj,nk->ijk", y.data, y.data, y.data) / y.n
    assert np.abs(m3).max() < 0.05
    # variance algebra: Var Y = β²Σ + (1−β²)Σ = Σ even near β = 1
    y99 = construct_Y(x, beta=0.99, seed=25, spec=spec)
    np.testing.assert_allclose(y99.covariance(), np.eye(2), atol=0.03)


def test_construct_Y_half_split_for_raw_data():
    rng = np.random.default_rng(26)
    x = Sample(rng.exponential(1.0, (400_000, 2)) - 1.0)
    y = construct_Y(x, beta=0.8, seed=27)  # no spec: half-split copy
    for order in (1, 2, 3):
        assert moment_gap_in_se(x.data, y.data, order) < 4.0


def test_construct_Y_validation_and_reproducibility():
    spec = DistributionSpec("gaussian", 2, seed=28)
    x = spec.sample(1000)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            construct_Y(x, beta=bad, seed=0)
    y1 = construct_Y(x, beta=0.5, seed=29, spec=spec)
    y2 = construct_Y(x, beta=0.5, seed=29, spec=spec)
    np.testing.assert_array_equal(y1.data, y2.data)


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------

def test_substream_is_named_and_order_independent():
    a0 = substream(123, "mc", 0).standard_normal(4)
    a1 = substream(123, "mc", 1).standard_normal(4)
    b = substream(123, "boot", 0).standard_normal(4)
    a0_again = substream(123, "mc", 0).standard_normal(4)
    np.testing.assert_array_equal(a0, a0_again)
    assert not np.allclose(a0, a1)
    assert not np.allclose(a0, b)


# ---------------------------------------------------------------------------
# Efron counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 300, 301, 40_000, 40_001])
@pytest.mark.parametrize("chunks", [(5,), (2, 2, 1), (1,) * 5])
def test_uint32_index_draws_repeat_the_int64_draws(n, chunks):
    # the counts kernel draws uint32 indices; numpy takes both dtypes
    # through the same 32-bit path, so one-shot (5 rows at once) and
    # chunked draws give the same values and the same generator state
    wide, narrow = np.random.default_rng(11), np.random.default_rng(11)
    for m in chunks:
        a = wide.integers(0, n, size=(m, n))
        b = narrow.integers(0, n, size=(m, n), dtype=np.uint32)
        assert np.array_equal(a, b)
        assert wide.bit_generator.state == narrow.bit_generator.state


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (6, 1), (300, 3),
                                  (301, 3), (40_001, 2)])
def test_resample_counts_equal_bincount_of_the_int64_draw(n, m):
    ref = np.random.default_rng(12)
    draws = ref.integers(0, n, size=(m, n))
    expected = np.stack([np.bincount(row, minlength=n) for row in draws])
    # stale values in the caller's block must not leak into the counts, and
    # cells beyond m·n are left as they were
    out = np.full(m * n + 3, 7.0)
    rng = np.random.default_rng(12)
    counts = _resample_counts(n, m, rng, out)
    assert counts.shape == (m, n) and counts.dtype == np.float64
    assert np.shares_memory(counts, out)
    assert np.array_equal(counts, expected)
    assert (out[m * n:] == 7.0).all()
    assert rng.bit_generator.state == ref.bit_generator.state
