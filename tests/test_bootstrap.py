"""Bootstrap kit: resampling identities, quantiles, score tests, coverage."""

import itertools
import math

import numpy as np
import pytest

from cltcert import bootstrap, cli, tensors
from cltcert.bootstrap import (
    _resample_means,
    bootstrap_ball_quantile,
    bootstrap_score_test,
    chi2_quantile,
    elliptical_coverage_experiment,
    rao_score_test,
    score_level_experiment,
)
from cltcert.engine import InfeasibleError, MomentSummary
from cltcert.samplers import DistributionSpec, sample_gaussian
from cltcert.tensors import Sample, SpdError


# ---------------------------------------------------------------------------
# Efron resampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [300, 301])
def test_resample_kernel_matches_one_shot_index_draw(monkeypatch, n):
    # a 1000-cell budget splits B = 25 replicates into chunks of 3 rows,
    # the last one short; at n = 301 each chunk's m·n draws are odd.  The
    # chunks' counts, copied before the next chunk overwrites the block,
    # must be the one-shot int64 draw's counts exactly
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 1000)
    blocks, count = [], bootstrap._resample_counts

    def spy(*args):
        block = count(*args)
        blocks.append(block.copy())
        return block
    monkeypatch.setattr(bootstrap, "_resample_counts", spy)
    x = np.random.default_rng(8).standard_normal((n, 3))
    rng = np.random.default_rng(9)
    _resample_means(x - x.mean(axis=0), 25, rng)
    one_shot = np.random.default_rng(9)
    draws = one_shot.integers(0, n, size=(25, n))
    expected = np.stack([np.bincount(row, minlength=n) for row in draws])
    assert [b.shape[0] for b in blocks] == [3] * 8 + [1]
    assert np.array_equal(np.concatenate(blocks), expected)
    assert rng.bit_generator.state == one_shot.bit_generator.state


def test_resample_counts_follow_the_multinomial_law():
    # on the identity rows each mean is a count row over n: the counts must
    # be n draws, not n − 1, and multinomial(n, 1/n), not Poisson(1)
    n, reps = 6, 20_000
    means = _resample_means(np.eye(n), reps, np.random.default_rng(3))
    counts = np.rint(n * means).astype(np.int64)
    np.testing.assert_allclose(n * means, counts, atol=1e-9)
    assert (counts >= 0).all()
    assert (counts.sum(axis=1) == n).all()
    cells = counts.size
    for k in range(4):
        p = math.comb(n, k) * (1 / n) ** k * (1 - 1 / n) ** (n - k)
        freq = np.count_nonzero(counts == k) / cells
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / cells)


def test_resample_kernel_memory_stays_within_the_chunk_budget(run_traced):
    # n·B is 8 chunk budgets; one B×n count matrix alone would take
    # 8 bytes × 8 budgets.  The kernel holds one float count block and one
    # chunk's uint32 draw, 12 bytes per budget cell, beside a few n×d
    # arrays
    b = 256
    n = 8 * tensors.CHUNK_CELLS // b
    s = sample_gaussian(np.eye(3), n, seed=4)
    res, peak = run_traced(
        lambda: bootstrap_ball_quantile(s, np.eye(3), alpha=0.1, B=b, seed=1))
    assert res.replicates.size == b
    assert peak < 12 * tensors.CHUNK_CELLS + 8 * 4 * n * 3


def test_efron_mean_and_covariance_identities_mc():
    s = sample_gaussian(np.diag([1.0, 3.0]), 100, seed=2)
    sigma_hat = s.covariance()  # biased (ddof=0) sample covariance
    reps = 20_000
    means = _resample_means(s.data - s.mean(), reps, np.random.default_rng(2))
    # E*(X̄*) = 0 exactly; MC noise is ~ sqrt(tr Σ̂ / (n·reps))
    assert np.abs(means.mean(axis=0)).max() < 4 * math.sqrt(3.0 / (100 * reps))
    # Cov*(X̄*) = Σ̂/n; the (2,2) entry's MC sd is about 3·sqrt(2/reps) = 0.03
    np.testing.assert_allclose(100 * means.T @ means / reps, sigma_hat,
                               atol=0.15)


def test_efron_dense_enumeration_identities():
    # full multinomial expectation over all n^n index tuples at n = 4
    rng = np.random.default_rng(5)
    data = rng.standard_normal((4, 2))
    centered = data - data.mean(axis=0)
    sigma_hat = (centered.T @ centered) / 4
    mean_acc = np.zeros(2)
    outer_acc = np.zeros((2, 2))
    count = 0
    for idx in itertools.product(range(4), repeat=4):
        xbar = centered[list(idx)].mean(axis=0)
        mean_acc += xbar
        outer_acc += np.outer(xbar, xbar)
        count += 1
    assert count == 256
    assert np.abs(mean_acc / count).max() < 1e-12
    assert np.allclose(outer_acc / count, sigma_hat / 4, atol=1e-12)


# ---------------------------------------------------------------------------
# bootstrap ball quantile
# ---------------------------------------------------------------------------

def test_ball_quantile_gaussian_matches_chi_limit():
    s = sample_gaussian(np.eye(3), 10_000, seed=3)
    res = bootstrap_ball_quantile(s, np.eye(3), alpha=0.1, B=2000, seed=0)
    target = math.sqrt(chi2_quantile(0.1, 3))
    assert res.quantile == pytest.approx(target, rel=0.05)
    assert res.replicates.size == 2000


def test_ball_quantile_alpha_limits_and_monotonicity():
    s = sample_gaussian(np.eye(2), 500, seed=4)
    hi = bootstrap_ball_quantile(s, np.eye(2), alpha=1 - 1e-9, B=400, seed=7)
    assert hi.quantile == hi.replicates.min()
    q10 = bootstrap_ball_quantile(s, np.eye(2), alpha=0.10, B=400, seed=7)
    q50 = bootstrap_ball_quantile(s, np.eye(2), alpha=0.50, B=400, seed=7)
    assert q10.quantile >= q50.quantile


def test_ball_quantile_weight_homogeneity_exact():
    s = sample_gaussian(np.eye(3), 300, seed=5)
    q1 = bootstrap_ball_quantile(s, np.eye(3), alpha=0.2, B=250, seed=9)
    q4 = bootstrap_ball_quantile(s, 4.0 * np.eye(3), alpha=0.2, B=250, seed=9)
    assert q4.quantile == 2.0 * q1.quantile  # exact binary-float scaling


def test_ball_quantile_validation_and_certificate():
    s = sample_gaussian(np.eye(2), 400, seed=6)
    with pytest.raises(ValueError):
        bootstrap_ball_quantile(s, np.eye(2), alpha=0.1, B=100)
    with pytest.raises(SpdError):
        bootstrap_ball_quantile(s, -np.eye(2), alpha=0.1, B=300)
    with pytest.raises(ValueError):
        bootstrap_ball_quantile(s, np.eye(3), alpha=0.1, B=300)
    res = bootstrap_ball_quantile(s, np.eye(2), alpha=0.1, B=300, seed=1,
                                  sigma2=0.02)
    assert res.certificate is not None
    assert res.certificate.theorem == "bootstrap_ball"
    assert res.certificate.total > 0


# ---------------------------------------------------------------------------
# score tests
# ---------------------------------------------------------------------------

def test_bootstrap_score_test_rejects_separated_mean():
    rng = np.random.default_rng(8)
    scores = Sample(rng.standard_normal((200, 3)) + 2.0, label="shifted")
    res = bootstrap_score_test(scores, alpha=0.1, B=300, seed=0)
    assert res.reject
    assert res.statistic > res.threshold


def test_bootstrap_score_test_quantile_monotone_and_rotation():
    rng = np.random.default_rng(9)
    scores = Sample(rng.standard_normal((300, 3)))
    r1 = bootstrap_score_test(scores, alpha=0.01, B=400, seed=3)
    r2 = bootstrap_score_test(scores, alpha=0.50, B=400, seed=3)
    assert r1.threshold >= r2.threshold

    # the statistic is a norm of the score sum: rotating the rows changes
    # nothing up to float noise, so the decision is preserved
    q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((3, 3)))
    rot = Sample(scores.data @ q.T)
    r3 = bootstrap_score_test(rot, alpha=0.01, B=400, seed=3)
    assert r3.statistic == pytest.approx(r1.statistic, rel=1e-9)
    assert r3.threshold == pytest.approx(r1.threshold, rel=1e-6)
    assert r3.reject == r1.reject


def test_bootstrap_score_test_validation_and_certificates():
    rng = np.random.default_rng(11)
    scores = Sample(rng.standard_normal((10_000, 3)))
    with pytest.raises(ValueError):
        bootstrap_score_test(scores, alpha=0.1, B=100)
    with pytest.raises(ValueError):
        bootstrap_score_test(Sample(np.array([[1.0]])), alpha=0.1, B=300)
    ok = bootstrap_score_test(scores, alpha=0.1, B=300, seed=0,
                              sigma2_s=0.05)
    assert ok.certificate is not None
    assert ok.certificate.theorem == "bootstrap_score_level"
    assert ok.certificate_error is None

    small = Sample(rng.standard_normal((200, 3)))
    bad = bootstrap_score_test(small, alpha=0.1, B=300, seed=0, sigma2_s=1.0)
    assert bad.certificate is None
    assert "feasibility" in bad.certificate_error
    assert isinstance(bad.reject, bool)  # test still ran


def test_chi2_quantile_oracles():
    for alpha in (0.5, 0.2, 0.05, 0.01):
        assert chi2_quantile(alpha, 2) == pytest.approx(-2.0 * math.log(alpha),
                                                        rel=1e-10)
    assert chi2_quantile(0.05, 1) == pytest.approx(1.959964 ** 2, abs=1e-4)
    qs = [chi2_quantile(a, 3) for a in (0.5, 0.1, 0.01)]
    assert qs[0] < qs[1] < qs[2]
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile(0.5, 0)


def test_rao_zero_score_never_rejects():
    scores = Sample(np.array([[1.0], [-1.0]]))
    res = rao_score_test(scores, np.array([[2.0]]), alpha=0.5)
    assert res.statistic == 0.0
    assert not res.reject


def test_rao_level_and_qq_against_chi2():
    rng = np.random.default_rng(12)
    n, trials = 500, 2000
    info = n * np.eye(1)
    stats, rejects = [], 0
    for _ in range(trials):
        scores = Sample(rng.standard_normal((n, 1)))
        res = rao_score_test(scores, info, alpha=0.05)
        stats.append(res.statistic)
        rejects += res.reject
    level = rejects / trials
    assert abs(level - 0.05) <= 0.02
    # QQ correlation of the replicate statistics against χ²₁ quantiles
    stats = np.sort(stats)
    probs = (np.arange(trials) + 0.5) / trials
    theo = np.array([chi2_quantile(1.0 - p, 1) for p in probs])
    corr = np.corrcoef(stats, theo)[0, 1]
    assert corr >= 0.99


def test_rao_validation_and_certificate():
    scores = Sample(np.random.default_rng(13).standard_normal((100, 2)))
    with pytest.raises(SpdError):
        rao_score_test(scores, np.zeros((2, 2)), alpha=0.1)
    with pytest.raises(ValueError):
        rao_score_test(scores, np.eye(3), alpha=0.1)
    ms = MomentSummary(d=2, n=100, x_w3_frob=0.5, x_w4_mean=8.0,
                       sigma_cond=1.0)
    res = rao_score_test(scores, np.eye(2), alpha=0.1, moments=ms)
    assert res.certificate is not None
    assert res.certificate.theorem == "score_chi2_level"


# ---------------------------------------------------------------------------
# level / coverage experiments
# ---------------------------------------------------------------------------

def test_score_level_experiment_smoke_and_determinism():
    r1 = score_level_experiment(d=2, n=50, alpha=0.2, B=200, trials=60, seed=4)
    r2 = score_level_experiment(d=2, n=50, alpha=0.2, B=200, trials=60, seed=4)
    assert r1 == r2
    assert 0.0 <= r1.level <= 0.5
    assert r1.stderr > 0


def test_experiments_do_not_depend_on_the_resample_chunk(monkeypatch,
                                                         capsys):
    argv = {
        "score-level": ["experiment", "--name", "score-level", "--seed", "5",
                        "--d", "2", "--n", "50", "--B", "200", "--trials",
                        "40", "--alpha", "0.1"],
        "coverage": ["experiment", "--name", "coverage", "--seed", "5",
                     "--d", "2", "--n", "50", "--B", "200", "--trials",
                     "200", "--alpha", "0.1"],
    }

    def stdout(args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    default = {name: stdout(args) for name, args in argv.items()}
    assert default == {name: stdout(args) for name, args in argv.items()}
    # 1000 cells hold 20 replicates of n = 50: B = 200 takes 10 chunks
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 1000)
    assert default == {name: stdout(args) for name, args in argv.items()}


@pytest.mark.parametrize("sigma2", ["0", "nan"])
@pytest.mark.parametrize("test", ["ball", "score"])
def test_invalid_sigma2_fails_before_any_resample(test, sigma2, tmp_path,
                                                 monkeypatch, capsys):
    path = tmp_path / "x.csv"
    sample_gaussian(np.eye(2), 300, seed=1).to_csv(str(path))
    resampled, resample = [], bootstrap._resample_means

    def spy(centered, b, rng):
        resampled.append(b)
        return resample(centered, b, rng)

    monkeypatch.setattr(bootstrap, "_resample_means", spy)
    code = cli.main(["bootstrap", "--test", test, "--data", str(path),
                     "--alpha", "0.1", "--B", "400", "--seed", "1",
                     "--sigma2", sigma2])
    assert (code, capsys.readouterr().out, resampled) == (2, "", [])


def test_coverage_experiment_smoke():
    spec = DistributionSpec(family="gaussian", d=2, seed=0)
    res = elliptical_coverage_experiment(spec, np.eye(2), alpha=0.1, n=100,
                                         B=250, trials=200, seed=1)
    assert 0.80 <= res.coverage <= 0.98
    assert res.certificate is None
    with pytest.raises(ValueError):
        elliptical_coverage_experiment(spec, np.eye(2), alpha=0.1, n=100,
                                       B=250, trials=199)
    with pytest.raises(ValueError):
        elliptical_coverage_experiment(spec, np.eye(3), alpha=0.1, n=100,
                                       B=250, trials=200)


def test_coverage_certificate_feasible_and_infeasible(monkeypatch):
    monkeypatch.setattr(bootstrap, "COVERAGE_PILOT_N", 4000)
    spec = DistributionSpec(family="gaussian", d=2, seed=0)
    ok = elliptical_coverage_experiment(spec, np.eye(2), alpha=0.1, n=400,
                                        B=250, trials=200, seed=2,
                                        sigma2=0.05)
    assert ok.certificate is not None
    assert ok.certificate.theorem == "elliptical_coverage"
    assert ok.certificate.term("event_probability_n1") == pytest.approx(1 / 400)
    assert ok.certificate_error is None

    bad = elliptical_coverage_experiment(spec, np.eye(2), alpha=0.1, n=400,
                                         B=250, trials=200, seed=2,
                                         sigma2=5.0)
    assert bad.certificate is None
    assert "feasibility" in bad.certificate_error
    assert bad.coverage == ok.coverage  # empirical run unaffected

    # a non-finite σ² fails before any trial resamples
    monkeypatch.setattr(bootstrap, "_resample_means", None)
    for sigma2 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            elliptical_coverage_experiment(spec, np.eye(2), alpha=0.1, n=400,
                                           B=250, trials=200, seed=2,
                                           sigma2=sigma2)


def test_coverage_nontrivial_mean_and_rotation_stability():
    # N(0, I) is rotation invariant, so the ellipsoids of W and of its
    # rotation qWqᵀ have the same coverage; only Monte Carlo noise differs
    spec = DistributionSpec(family="gaussian", d=2, seed=0)
    w = np.diag([1.0, 4.0])
    res = elliptical_coverage_experiment(spec, w, alpha=0.1, n=150, B=250,
                                         trials=200, seed=3)
    assert 0.80 <= res.coverage <= 0.98

    theta = 0.83
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    res_rot = elliptical_coverage_experiment(spec, q @ w @ q.T, alpha=0.1,
                                             n=150, B=250, trials=200, seed=3)
    assert abs(res.coverage - res_rot.coverage) <= 0.08
