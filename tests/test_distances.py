"""Distance estimators: exact 1-D statistics, sup-search estimators, probes."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from cltcert import distances, tensors
from cltcert.distances import (
    DistanceEstimate,
    _bootstrap_stderr,
    _projections,
    _radii,
    _sort_keys,
    _sup_ks,
    anti_concentration_probe,
    delta_B_hat,
    delta_H_hat,
    ks_two_sample_1d,
    levy_distance_1d,
    portnoy_scaling_experiment,
    same_law_threshold,
)
from cltcert.samplers import sample_gaussian, sample_portnoy, substream
from cltcert.tensors import Sample

# exact sup_r [P(χ²₂ ≤ r²) − P(χ²₂(nc=9) ≤ r²)] for the mean-shift-(3,0) pair
BALL_SHIFT_GAP = 0.7550035541717667
# sup_x [Φ(x) − Φ(x−3)] = 2Φ(1.5) − 1 for the projected shift
HS_SHIFT_GAP = 0.8663855974622838


def _sample(arr):
    return Sample(np.asarray(arr, dtype=float))


# ---------------------------------------------------------------------------
# KS statistic
# ---------------------------------------------------------------------------

def test_ks_identical_and_disjoint():
    a = np.array([0.3, -1.2, 4.0])
    assert ks_two_sample_1d(a, a) == 0.0
    assert ks_two_sample_1d([0.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        ks_two_sample_1d([], [1.0])


def test_ks_matches_scipy_exactly_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(40):
        na, nb = rng.integers(5, 60, size=2)
        # integer-valued draws force ties across and within samples
        a = rng.integers(0, 8, na).astype(float)
        b = rng.integers(0, 8, nb).astype(float)
        ours = ks_two_sample_1d(a, b)
        ref = stats.ks_2samp(a, b, method="exact").statistic
        assert ours == pytest.approx(ref, abs=1e-14)


def test_ks_uniform_null_is_small():
    rng = np.random.default_rng(11)
    a, b = rng.random(100_000), rng.random(100_000)
    assert ks_two_sample_1d(a, b) < 0.01


def test_nan_is_rejected_and_inf_is_ordered():
    for a, b in (([0.0, np.nan], [0.5, 1.0]), ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            ks_two_sample_1d(a, b)
    for a, b in (([np.nan, 1.0], [0.0, 2.0]), ([1.0], [0.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            levy_distance_1d(a, b)
    assert ks_two_sample_1d([-np.inf, 0.0], [np.inf, 0.0]) == 0.5
    assert levy_distance_1d([-np.inf, np.inf], [np.inf, -np.inf]) == 0.0


# The KS statistic as two sorts and four binary searches, and the bootstrap
# stderr as resample-then-KS: the pooled-order kernels must reproduce both
# bit for bit, and draw the same random numbers in the same order.

def _ks_reference(a, b):
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def _bootstrap_reference(ra, rb, n_boot, rng):
    if n_boot < 2:
        return 0.0
    vals = np.empty(n_boot)
    for k in range(n_boot):
        ia = rng.integers(0, ra.size, ra.size)
        ib = rng.integers(0, rb.size, rb.size)
        vals[k] = _ks_reference(ra[ia], rb[ib])
    return float(vals.std(ddof=1))


def _edge_pairs():
    rng = np.random.default_rng(17)
    inf = np.inf
    return [
        # ties within and across samples
        (rng.integers(0, 6, 40).astype(float),
         rng.integers(2, 9, 33).astype(float)),
        (rng.integers(0, 3, 200).astype(float), np.array([1.0])),
        # unequal and size-1 samples
        (rng.standard_normal(1), rng.standard_normal(57)),
        (np.array([2.0]), np.array([2.0])),
        (rng.standard_normal(25), rng.standard_normal(300) + 0.2),
        (rng.standard_normal(500), rng.standard_normal(400) + 0.1),
        # signed zeros compare equal
        (np.array([-0.0, 0.0, 1.0, -0.0]), np.array([0.0, -0.0, -1.0])),
        (np.array([-0.0, 1.5, -0.0]), np.array([0.0, -1.0, 0.0, 0.0])),
        # the smallest subnormals, beside zeros and beside each other
        (np.array([5e-324, -5e-324, 0.0, 1.0]), np.array([-5e-324, 0.0])),
        # infinities are ordered values; the packed keys take them beside
        # magnitudes of 2 or more, and the argsort path beside smaller ones
        (np.array([-inf, 0.0, inf, inf]), np.array([inf, -inf, 1.0])),
        (np.full(7, inf), np.full(4, -inf)),
        (np.array([-inf, 2.0, 3.5, inf]), np.array([inf, -4.0, 2.0, 2.0])),
        (np.array([-inf, 0.5, inf]), np.array([0.25, inf, -0.75, inf])),
        # magnitudes spanning 2000 binades take the argsort path, and so
        # does a subnormal beside |v| >= 2
        (np.array([1e-300, -1e300, 3.0, 1e-300]), np.array([1e300, -1e-300])),
        (np.array([0.0, 5e-324, -4.0]), np.array([2.0, -0.0, 5e-324])),
        # exact zeros beside |v| >= 2 take the packed keys, shifted by the
        # smallest nonzero |v| less one binade, with or without a shift
        # left to take
        (np.round(8 * rng.standard_normal(60)) / 4,
         np.round(8 * rng.standard_normal(45)) / 4 + 0.25),
        (np.array([0.0, 1.0, -0.0, 1.0, 4.0]), np.array([-1.0, 0.0, 1.0])),
        (np.array([0.0, 3e-308, -1.5, 0.0]), np.array([-3e-308, 1.0, -0.0])),
    ]


def test_ks_equals_two_sort_reference_bit_for_bit():
    pairs = _edge_pairs()
    for a, b in pairs:
        assert ks_two_sample_1d(a, b) == _ks_reference(a, b)
        assert ks_two_sample_1d(b, a) == _ks_reference(b, a)
    # the pairs reach both the packed keys and the argsort path
    fallback = [_sort_keys(a, b) is None for a, b in pairs]
    assert fallback[-5:] == [True, True, False, False, False]


def test_ks_fuzz_equals_two_sort_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(3000):
        na, nb = rng.integers(1, 40, size=2)
        scale = 10.0 ** rng.uniform(-5, 5)
        a = scale * rng.standard_normal(na)
        b = scale * (rng.standard_normal(nb) + rng.normal(0.0, 0.5))
        kind = rng.integers(4)
        if kind == 1:  # ties within and across samples
            a, b = np.round(a / scale), np.round(b / scale)
        elif kind == 2:  # rounding at the scale, near-ties that differ
            a, b = np.round(a, 2), np.round(b, 2)
        elif kind == 3:  # quarters of the scale, zeros among them
            a = np.round(4 * a / scale) / 4 * scale
            b = np.round(4 * b / scale) / 4 * scale
            a[rng.integers(na)] = 0.0
            assert _sort_keys(a, b) is not None
        assert ks_two_sample_1d(a, b) == ks_two_sample_1d(b, a) == (
            _ks_reference(a, b))


@pytest.mark.parametrize("n_boot", [0, 1, 2, 37])
def test_bootstrap_stderr_equals_resample_reference(n_boot):
    nonzero = 0
    for i, (a, b) in enumerate(_edge_pairs()):
        rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
        got = _bootstrap_stderr(a, b, n_boot, rng)
        assert got == _bootstrap_reference(a, b, n_boot, ref_rng), i
        assert rng.bit_generator.state == ref_rng.bit_generator.state, i
        nonzero += got > 0.0
    assert (nonzero > 0) == (n_boot >= 2)


def test_sup_ks_keeps_the_first_of_tied_pairs():
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(30), rng.standard_normal(45) + 0.5
    low = (x, x + 1e-3)
    # (y, x) ties (x, y) in KS value, but its resamples differ
    tie = ks_two_sample_1d(x, y)
    assert ks_two_sample_1d(*low) < tie == ks_two_sample_1d(y, x)
    sa, sb = _sample(x[:, None]), _sample(y[:, None])
    est = _sup_ks(sa, sb, iter([low, (x, y), (y, x)]), 20,
                  np.random.default_rng(4), "pairs")
    first = _bootstrap_stderr(x, y, 20, np.random.default_rng(4))
    assert first != _bootstrap_stderr(y, x, 20, np.random.default_rng(4))
    assert (est.value, est.stderr) == (tie, first)
    assert (est.n_mc, est.search_set, est.flags) == (
        30, "pairs", ("lower_estimate",))


def test_ks_reads_strided_and_2d_input_like_contiguous_copies():
    rng = np.random.default_rng(12)
    x = np.round(4 * rng.standard_normal((400, 3))) / 4
    y = np.round(4 * rng.standard_normal((300, 3))) / 4 + 0.25
    dirs = rng.standard_normal((5, 3))
    # rows of a transposed matrix product are strided views
    pa, pb = (x @ dirs.T).T, (y @ dirs.T).T
    assert not pa[0].flags.c_contiguous
    for ra, rb in zip(pa, pb):
        want = ks_two_sample_1d(ra.copy(), rb.copy())
        assert ks_two_sample_1d(ra, rb) == want == _ks_reference(ra, rb)
    assert ks_two_sample_1d(x, y) == ks_two_sample_1d(x.ravel().copy(),
                                                      y.ravel().copy())
    assert ks_two_sample_1d(x.T, y) == ks_two_sample_1d(x.T.copy().ravel(),
                                                        y.ravel())


# The ball radii reduce a (d, n) copy over its first axis.  numpy's
# norm(axis=1) adds the d squares left to right too while d < 8, and
# pairwise from d = 8, where the two differ by a few ulp.

@pytest.mark.parametrize("d", range(1, 8))
def test_radii_equal_norm_bit_for_bit_below_d8(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((3000, d)) * rng.exponential(size=d) * 10.0
    x[:100] = x[100:200]  # repeated rows
    for t in (np.zeros(d), rng.standard_normal(d), 1e3 * np.eye(d)[0]):
        got = _radii(x.T.copy(), t)
        assert np.array_equal(got, np.linalg.norm(x - t, axis=1))


@pytest.mark.parametrize("d", [8, 16, 64])
def test_radii_within_4_ulp_of_norm_from_d8(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((3000, d)) * rng.exponential(size=d)
    t = rng.standard_normal(d)
    want = np.linalg.norm(x - t, axis=1)
    got = _radii(x.T.copy(), t)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def _delta_B_reference(sa, sb, n_centers, seed, n_boot):
    """delta_B_hat with the radii as np.linalg.norm over (n, d) rows."""
    d = sa.dim
    tr = 0.5 * (np.trace(sa.covariance()) + np.trace(sb.covariance()))
    scale = math.sqrt(max(tr, 1e-300))
    g = substream(seed, "delta_B:centers", 0).standard_normal((n_centers, d))
    axes = scale * np.eye(d)
    centers = np.concatenate([np.zeros((1, d)), scale * g, axes, -axes])
    radii = ((np.linalg.norm(sa.data - t, axis=1),
              np.linalg.norm(sb.data - t, axis=1)) for t in centers)
    return _sup_ks(sa, sb, radii, n_boot,
                   substream(seed, "delta_B:stderr", 0), "reference")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_delta_B_equals_norm_reference(d):
    rng = np.random.default_rng(40 + d)
    x = np.round(4 * rng.standard_normal((500, d))) / 4
    y = np.round(4 * rng.laplace(size=(450, d))) / 4
    # repeated rows tie within and across samples at every center
    sa = _sample(np.concatenate([x, x[:60], y[:25]]))
    sb = _sample(np.concatenate([y, y[:40], x[:30]]))
    for seed, n_boot in ((0, 0), (3, 2), (5, 40)):
        got = delta_B_hat(sa, sb, n_centers=24, seed=seed, n_boot=n_boot)
        want = _delta_B_reference(sa, sb, 24, seed, n_boot)
        assert (got.value, got.stderr) == (want.value, want.stderr)
        assert got.value > 0.0 and (got.stderr > 0.0) == (n_boot >= 2)


def _delta_H_reference(sa, sb, n_dirs, seed, n_boot):
    """delta_H_hat with every projection from one product over all
    directions."""
    d = sa.dim
    g = substream(seed, "delta_H:dirs", 0).standard_normal((n_dirs, d))
    dirs = np.concatenate([g / np.linalg.norm(g, axis=1, keepdims=True),
                           np.eye(d)], axis=0)
    columns = zip((sa.data @ dirs.T).T, (sb.data @ dirs.T).T)
    return _sup_ks(sa, sb, columns, n_boot,
                   substream(seed, "delta_H:stderr", 0), "reference")


def _forced_budgets(k, rows):
    """Cell budgets that split k directions of ``rows`` pooled rows into 3
    or more blocks: the smallest step (3), the smallest larger step that
    would leave one direction over (k % step == 1), a step of 7 and a
    budget below one pair of projections."""
    over = min(s for s in range(4, k) if k % s == 1)
    return [3 * rows, over * rows, 7 * rows + 3, 1]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_projections_repeat_the_one_shot_product(d, monkeypatch):
    # 1038 pooled rows, not a multiple of 8: the transposed product
    # dirs @ x.T rounds differently here, and so does a one-column block
    rng = np.random.default_rng(80 + d)
    x = np.round(4 * rng.standard_normal((601, d))) / 4
    y = np.round(4 * rng.laplace(size=(437, d))) / 4
    dirs = rng.standard_normal((40, d))
    want_a, want_b = (x @ dirs.T).T, (y @ dirs.T).T
    for budget in [tensors.CHUNK_CELLS] + _forced_budgets(40, 1038):
        monkeypatch.setattr(tensors, "CHUNK_CELLS", budget)
        # each pair is a view into a buffer that the next block overwrites
        pa, pb = zip(*((a.copy(), b.copy())
                       for a, b in _projections(x, y, dirs)))
        assert np.array_equal(pa, want_a) and np.array_equal(pb, want_b)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_delta_H_is_bit_identical_at_every_budget(d, monkeypatch,
                                                  projection_blocks):
    rng = np.random.default_rng(60 + d)
    x = np.round(4 * rng.standard_normal((500, d))) / 4
    y = np.round(4 * rng.laplace(size=(450, d))) / 4
    # repeated rows tie within and across samples along every direction
    sa = _sample(np.concatenate([x, x[:60], y[:25]]))
    sb = _sample(np.concatenate([y, y[:40], x[:30]]))
    k, rows = 24 + d, sa.n + sb.n
    runs = ((0, 0), (5, 40))
    want = [_delta_H_reference(sa, sb, 24, seed, n_boot)
            for seed, n_boot in runs]
    assert all(w.value > 0.0 for w in want) and want[1].stderr > 0.0
    default = tensors.CHUNK_CELLS
    for budget in [default] + _forced_budgets(k, rows):
        monkeypatch.setattr(tensors, "CHUNK_CELLS", budget)
        for (seed, n_boot), ref in zip(runs, want):
            projection_blocks.clear()
            got = delta_H_hat(sa, sb, n_dirs=24, seed=seed, n_boot=n_boot)
            assert (got.value, got.stderr) == (ref.value, ref.stderr)
            assert sum(projection_blocks) == k
            if budget == default:
                assert projection_blocks == [k]
            else:
                assert len(projection_blocks) >= 3
                assert min(projection_blocks) >= 2


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_halfspace_threshold_is_bit_identical_at_every_budget(d,
                                                              monkeypatch):
    def threshold():
        return same_law_threshold(d, 1000, estimator="halfspace", n_null=4,
                                  n_cal=301, seed=2, n_centers=24)

    want = threshold()
    for budget in _forced_budgets(24 + d, 2 * 301):
        monkeypatch.setattr(tensors, "CHUNK_CELLS", budget)
        assert threshold() == want


@pytest.mark.parametrize("rounded", [True, False],
                         ids=["quarters", "continuous"])
def test_delta_H_memory_stays_within_the_chunk_budget(rounded, run_traced):
    # 259 directions of two 32 768-row samples: projecting onto all of them
    # at once would take 16 budgets.  They go in 17 blocks of at most 16
    # directions, one budget; the KS statistic, its bootstrap and the best
    # pair take a few copies of the pooled rows.  A second block kept alive
    # would break the bound.  Quarter-rounded rows scaled by 1e-300 or by
    # 1e300 span 2000 binades, so their KS statistics take the argsort
    # path; continuous rows take the packed keys.
    n, d = 32_768, 3
    rng = np.random.default_rng(71)

    def rows(shift):
        x = rng.standard_normal((n, d)) + shift
        if rounded:
            scale = np.where(rng.random((n, 1)) < 0.5, 1e-300, 1e300)
            x = np.round(4 * x) / 4 * scale
        return x

    sa = _sample(rows(0.0))
    sb = _sample(rows(0.25))
    assert (_sort_keys(sa.data[:, 0], sb.data[:, 0]) is None) == rounded
    est, peak = run_traced(
        lambda: delta_H_hat(sa, sb, n_dirs=256, seed=3, n_boot=2))
    assert est.value > 0.0 and est.stderr > 0.0
    assert peak < 8 * (tensors.CHUNK_CELLS + 4 * 2 * n * d)


# ---------------------------------------------------------------------------
# Lévy distance
# ---------------------------------------------------------------------------

def _levy_sandwich_ok(eps, a, b):
    """Definitional check written independently of the implementation.

    All three step functions are right-continuous, so checking just right of
    every breakpoint of every function covers all of ℝ; the nudge also
    avoids float round-trip artifacts like (b+ε)−ε ≠ b."""
    a, b = np.sort(a), np.sort(b)
    xs = np.concatenate([a, b, a + eps, a - eps, b + eps, b - eps])
    xs = xs + 1e-9 * (1.0 + np.abs(xs))
    f = np.searchsorted(a, xs, side="right") / a.size
    g_left = np.searchsorted(b, xs - eps, side="right") / b.size
    g_right = np.searchsorted(b, xs + eps, side="right") / b.size
    return bool(np.all(g_left - eps <= f + 1e-7)
                and np.all(f <= g_right + eps + 1e-7))


def test_levy_identical_and_translation():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(500)
    assert levy_distance_1d(a, a) == 0.0
    c = 0.3
    assert levy_distance_1d(a, a + c) <= c + 1e-9


def test_levy_point_mass_corner():
    # δ₀ vs δ₁: for ε < 1 the sandwich fails on [0, 1−ε) where F = 1 but
    # G(x+ε) = 0, so the radius is exactly 1 (vertical slack only).
    val = levy_distance_1d([0.0] * 5, [1.0] * 7)
    assert val == pytest.approx(1.0, abs=1e-9)
    # a shorter shift is the classical 45° case: radius = shift
    val2 = levy_distance_1d([0.0] * 5, [0.25] * 7)
    assert val2 == pytest.approx(0.25, abs=1e-9)


def test_levy_below_ks_and_minimal():
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = rng.standard_normal(rng.integers(10, 80))
        b = rng.standard_normal(rng.integers(10, 80)) + rng.normal(0, 0.5)
        lev = levy_distance_1d(a, b)
        assert lev <= ks_two_sample_1d(a, b) + 1e-12
        assert _levy_sandwich_ok(lev, a, b)
        if lev > 2e-4:
            assert not _levy_sandwich_ok(lev - 1e-4, a, b)


# ---------------------------------------------------------------------------
# ball / half-space estimators
# ---------------------------------------------------------------------------

def test_estimate_container_validation_and_json():
    est = DistanceEstimate(0.1, 0.01, 1000, "balls:origin", ("lower_estimate",))
    assert json.loads(est.to_json()) == {
        "value": 0.1, "stderr": 0.01, "n_mc": 1000,
        "search_set": "balls:origin", "flags": ["lower_estimate"]}
    with pytest.raises(ValueError):
        DistanceEstimate(-0.1, 0.0, 10, "x")
    with pytest.raises(ValueError):
        DistanceEstimate(0.1, -1.0, 10, "x")
    with pytest.raises(ValueError):
        DistanceEstimate(0.1, 0.0, 10, "")


def test_delta_B_identical_is_zero():
    s = sample_gaussian(np.eye(2), 2000, seed=1)
    est = delta_B_hat(s, s, n_centers=16, seed=0, n_boot=5)
    assert est.value == 0.0
    assert "lower_estimate" in est.flags


def test_delta_B_detects_mean_shift():
    # N(0, I₂) vs N((3,0), I₂): the origin-centered ball alone separates
    # ‖X‖ from ‖Y‖ with exact gap ≈ 0.755 (central vs noncentral χ²), and
    # far-off centers approximate half-spaces (projection gap ≈ 0.866), so
    # the searched maximum must land between those two oracles.
    a = sample_gaussian(np.eye(2), 30_000, seed=2)
    b = Sample(sample_gaussian(np.eye(2), 30_000, seed=3).data + [3.0, 0.0])
    est = delta_B_hat(a, b, n_centers=64, seed=0, n_boot=40)
    assert est.value >= 0.85
    assert BALL_SHIFT_GAP - 0.02 <= est.value <= HS_SHIFT_GAP + 0.02
    assert est.stderr > 0.0


def test_delta_B_same_law_is_small_and_monotone_in_centers():
    a = sample_gaussian(np.eye(3), 5000, seed=4)
    b = sample_gaussian(np.eye(3), 5000, seed=5)
    small = delta_B_hat(a, b, n_centers=8, seed=9, n_boot=0)
    big = delta_B_hat(a, b, n_centers=24, seed=9, n_boot=0)
    assert big.value >= small.value  # prefix property of the center stream
    assert big.value < 0.08
    with pytest.raises(ValueError):
        delta_B_hat(a, sample_gaussian(np.eye(2), 100, seed=6))


def test_delta_H_detects_shift_via_axis_direction():
    a = sample_gaussian(np.eye(3), 20_000, seed=12)
    b = Sample(sample_gaussian(np.eye(3), 20_000, seed=13).data
               + [3.0, 0.0, 0.0])
    est = delta_H_hat(a, b, n_dirs=32, seed=0, n_boot=40)
    assert abs(est.value - HS_SHIFT_GAP) < 0.02
    assert est.stderr > 0.0


def test_delta_H_same_law_monotone_and_errors():
    a = sample_gaussian(np.eye(3), 5000, seed=14)
    b = sample_gaussian(np.eye(3), 5000, seed=15)
    small = delta_H_hat(a, b, n_dirs=8, seed=9, n_boot=0)
    big = delta_H_hat(a, b, n_dirs=24, seed=9, n_boot=0)
    assert big.value >= small.value
    assert big.value < 0.08
    with pytest.raises(ValueError):
        delta_H_hat(a, sample_gaussian(np.eye(2), 100, seed=16))
    # one replicate has no spread: the stderr would read 0.0
    for est in (delta_B_hat, delta_H_hat):
        with pytest.raises(ValueError, match="n_boot must be 0 or >= 2"):
            est(a, b, 8, seed=9, n_boot=1)


def test_searches_call_the_ks_kernel_once_per_candidate(monkeypatch):
    # the benchmark's tracer counts the calls to ks_two_sample_1d, by its
    # global name, and the rows they read
    rows = []
    ks = distances.ks_two_sample_1d

    def spy(a, b):
        rows.append(a.size + b.size)
        return ks(a, b)

    monkeypatch.setattr(distances, "ks_two_sample_1d", spy)
    d = 3
    a = sample_gaussian(np.eye(d), 300, seed=14)
    b = sample_gaussian(np.eye(d), 200, seed=15)
    delta_B_hat(a, b, n_centers=5, seed=1, n_boot=2)
    assert rows == [500] * (1 + 5 + 2 * d)
    rows.clear()
    delta_H_hat(a, b, n_dirs=7, seed=1, n_boot=2)
    assert rows == [500] * (7 + d)


def test_rotation_invariance_up_to_search_noise():
    theta = 0.6108
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    a = sample_gaussian(np.eye(2), 20_000, seed=20)
    b = Sample(sample_gaussian(np.eye(2), 20_000, seed=21).data + [3.0, 0.0])
    ar = _sample(a.data @ q.T)
    br = _sample(b.data @ q.T)
    e1 = delta_B_hat(a, b, n_centers=32, seed=1, n_boot=0)
    e2 = delta_B_hat(ar, br, n_centers=32, seed=1, n_boot=0)
    assert abs(e1.value - e2.value) < 0.03
    h1 = delta_H_hat(a, b, n_dirs=32, seed=1, n_boot=0)
    h2 = delta_H_hat(ar, br, n_dirs=32, seed=1, n_boot=0)
    assert abs(h1.value - h2.value) < 0.03


def test_same_law_threshold_calibration():
    thr = same_law_threshold(2, 4096, estimator="ball", n_null=40,
                             n_cal=1024, seed=0, n_centers=8)
    assert thr > 0.0
    assert thr == same_law_threshold(2, 4096, estimator="ball", n_null=40,
                                     n_cal=1024, seed=0, n_centers=8)
    a = sample_gaussian(np.eye(2), 4096, seed=30)
    b = sample_gaussian(np.eye(2), 4096, seed=31)
    est = delta_B_hat(a, b, n_centers=8, seed=0, n_boot=0)
    assert est.value < thr
    with pytest.raises(ValueError):
        same_law_threshold(2, 100, estimator="box")


# ---------------------------------------------------------------------------
# anti-concentration probe
# ---------------------------------------------------------------------------

def test_anti_concentration_small_dims():
    # d=1: sup ratio → χ₁ density at 0⁺, which is 2φ(0) ≈ 0.7979
    assert anti_concentration_probe(1, 1e-4) == pytest.approx(
        2.0 / math.sqrt(2 * math.pi), rel=2e-3)
    # d=3: χ₃ density peaks at r = √2 with value ≈ 0.587051
    assert anti_concentration_probe(3, 1e-3) == pytest.approx(
        0.587051, abs=2e-3)
    with pytest.raises(ValueError):
        anti_concentration_probe(0, 1e-3)
    with pytest.raises(ValueError):
        anti_concentration_probe(3, 0.0)


def test_anti_concentration_bounded_uniformly_in_d():
    density_max = {2: 0.606531, 8: 0.570915, 32: 0.565708, 128: 0.564560}
    ratios = {}
    for d, fmax in density_max.items():
        r = anti_concentration_probe(d, 1e-3)
        ratios[d] = r
        assert r <= fmax + 0.01  # ratio ≤ sup density + O(ε)
        assert r <= 1.0
    vals = list(ratios.values())
    assert max(vals) / min(vals) < 2.0


# ---------------------------------------------------------------------------
# mixed-normal remainder scaling
# ---------------------------------------------------------------------------

def test_portnoy_scaling_validation_and_determinism():
    with pytest.raises(ValueError):
        portnoy_scaling_experiment([8, 16], 4096, reps=10)
    with pytest.raises(ValueError):
        portnoy_scaling_experiment([16, 8], 4096, reps=50)
    with pytest.raises(ValueError):
        portnoy_scaling_experiment([8, 5000], 4096, reps=50)
    f1 = portnoy_scaling_experiment([4, 8], 256, reps=40, seed=3)
    f2 = portnoy_scaling_experiment([4, 8], 256, reps=40, seed=3)
    assert f1 == f2
    assert f1.d_list == (4, 8) and len(f1.median_sq) == 2


def test_portnoy_scaling_slope_near_two():
    fit = portnoy_scaling_experiment([8, 16, 32], 2048, reps=80, seed=0)
    assert 1.4 < fit.slope < 2.6
    assert fit.median_sq[0] < fit.median_sq[1] < fit.median_sq[2]


def test_portnoy_scaling_halves_when_n_doubles():
    a = portnoy_scaling_experiment([8, 16], 2048, reps=150, seed=1)
    b = portnoy_scaling_experiment([8, 16], 4096, reps=150, seed=2)
    for ma, mb in zip(a.median_sq, b.median_sq):
        assert ma / mb == pytest.approx(2.0, rel=0.35)


def test_portnoy_family_unit_second_moment_d1():
    # sanity at d=1: 𝔼‖S_n‖² = 1 for the mixed-normal rows
    vals = []
    for k in range(400):
        s = sample_portnoy(1, 256, seed=1000 + k)
        vals.append(float(s.data.sum() / 16.0) ** 2)
    assert np.mean(vals) == pytest.approx(1.0, abs=0.21)
