"""Monte Carlo distance estimators over balls and half-spaces.

The population quantities are suprema over all ball centers / half-space
directions, which are not computable; everything here searches a randomized
set plus canonical points and reports the result explicitly as a *lower*
estimate.  Upper bounds come from the certificate engine — the two sides
validate each other.

Also hosts the 1-D Lévy metric, a Gaussian anti-concentration probe, and the
scaling study for the mixed-normal (rank-one conditional covariance) family.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensors
from .samplers import _resample_counts, substream
from .tensors import Sample

__all__ = [
    "DistanceEstimate",
    "ScalingFit",
    "anti_concentration_probe",
    "delta_B_hat",
    "delta_H_hat",
    "ks_two_sample_1d",
    "levy_distance_1d",
    "portnoy_scaling_experiment",
    "same_law_threshold",
]

# same_law_threshold keeps this order statistic of its null estimates and
# inflates it by this factor
NULL_QUANTILE = 0.99
NULL_MARGIN = 1.05


@dataclass(frozen=True)
class DistanceEstimate:
    """A randomized lower estimate of a sup-type distance.

    ``search_set`` records how the candidate centers/directions were built;
    ``flags`` carries caveats such as ``"lower_estimate"``.
    """

    value: float
    stderr: float
    n_mc: int
    search_set: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValueError(f"value must be finite and >= 0, got {self.value}")
        if not (self.stderr >= 0.0 and math.isfinite(self.stderr)):
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")
        if self.n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        if not self.search_set:
            raise ValueError("search_set descriptor must be non-empty")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# ---------------------------------------------------------------------------
# exact 1-D statistics
# ---------------------------------------------------------------------------

def _pooled_ranks(a: np.ndarray, b: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One argsort of a ∪ b, and how many entries of a and of b lie at or
    below each distinct pooled value.

    The counts are read at the last entry of each run of equal sorted
    values, so they are exactly what ``searchsorted(..., side="right")``
    returns there.  Returns ``(order, rank_a, rank_b)``; ``order[i] < a.size``
    marks the entries of a.  ``_bootstrap_stderr`` reads the pooled order of
    the entries; ``ks_two_sample_1d`` uses the counts only where
    ``_sort_keys`` declines.
    """
    v = np.concatenate([a, b])
    order = np.argsort(v)
    vs = v[order]
    if np.isnan(vs[-1]):  # argsort puts NaN last
        raise ValueError("samples must not contain NaN")
    # cumsum of a bool array goes through a slow buffered cast to int64
    rank_a = (order < a.size).astype(np.int64).cumsum()
    rank_b = np.arange(1, v.size + 1) - rank_a
    tie = vs[1:] == vs[:-1]
    if tie.any():
        last = np.append(~tie, True)
        rank_a, rank_b = rank_a[last], rank_b[last]
    return order, rank_a, rank_b


def _sort_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The entries of a ∪ b as sorted uint64 keys: bits 63..1 hold an
    order-preserving code of the value, bit 0 is set for the entries of b.

    Equal values get equal codes (−0.0 is added to 0.0 first, so the two
    zeros tie as under ``==``), and ±inf are ordered like other values.  The
    code is 2⁶² + m for v ≥ 0 and 2⁶² − 1 − m for v < 0, where m is |v|'s
    bit pattern less the exponent field of the smallest |v|.  Beside exact
    zeros, which keep m = 0, the field is that of the smallest nonzero |v|
    less one binade (none below 2⁻¹⁰²¹), so every other m stays above 0.
    Returns None when m does not fit in 62 bits: the magnitudes span 2¹⁰
    binades or more, as for values from 1e-300 to 1e300, or a subnormal
    beside |v| ≥ 2.  numpy sorts 64-bit values about three times faster
    than it argsorts them, which is why the label travels inside the key.
    """
    na = a.size
    keys = np.empty(na + b.size, dtype=np.uint64)
    v = keys.view(np.float64)
    np.add(a, 0.0, out=v[:na])
    np.add(b, 0.0, out=v[na:])
    signed = keys.view(np.int64)
    sgn = signed >> 63
    keys &= 2 ** 63 - 1  # the magnitude bits, monotone in |v|
    hi = int(keys.max())
    if hi > 0x7FF << 52:  # above the bits of inf: a NaN
        raise ValueError("samples must not contain NaN")
    lo = int(keys.min())
    zeros = lo == 0 < hi  # exact zeros, as in rounded or integer data
    if zeros:
        keys -= 1  # wraps the zeros to the top, −1 as int64
        # a binade below the smallest nonzero |v|, so m > 0 off the zeros
        lo = max(int(keys.min()) + 1 - (1 << 52), 0)
    shift = lo & (0x7FF << 52)
    if hi - shift >= 2 ** 62:
        return None
    signed -= shift - zeros  # the 1 taken off above goes back
    if zeros:
        np.maximum(signed, 0, out=signed)  # the zeros, now below 0: m = 0
    signed ^= sgn  # m → −1 − m for the negative values
    signed += 2 ** 62
    keys <<= 1
    keys[na:] |= 1
    keys.sort()
    return keys


def ks_two_sample_1d(a, b) -> float:
    """Exact two-sample Kolmogorov–Smirnov statistic.

    Supremum over all thresholds of |F̂_a − F̂_b|, attained at data points:
    both ECDFs are read at every distinct pooled value.  NaN is rejected;
    ±inf is ordered like any other value.

    The pooled sample is sorted once, as packed keys (``_sort_keys``) that
    carry each entry's sample in their lowest bit, and the statistic is
    read off one integer running sum.  Where the values span too many
    binades for the keys, it argsorts them instead (``_pooled_ranks``).
    Both give the same float.
    """
    # reshape, unlike ravel, keeps a strided 1-D view: the pooled keys
    # copy it anyway
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    na, nb = a.size, b.size
    keys = _sort_keys(a, b)
    if keys is None:
        _, rank_a, rank_b = _pooled_ranks(a, b)
        return float(np.abs(rank_a / na - rank_b / nb).max())
    n = na + nb
    # after the p + 1 smallest keys, s[p] = rank_a·nb − rank_b·na exactly
    s = (keys & 1).view(np.int64)
    s *= -n
    s += nb
    np.cumsum(s, out=s)
    keys >>= 1  # the value codes
    # the ECDFs are read at the last entry of each run of equal codes
    ends = keys[1:] != keys[:-1]
    mag = np.abs(s, out=keys.view(np.int64))
    if not ends.all():
        mag[:-1] *= ends
    top = int(mag.max())
    if top == 0:
        return 0.0
    # The result must be the float maximum of the expression the argsort
    # path evaluates, |rank_a/na − rank_b/nb|, at every run end.  Each
    # evaluation lies within 2⁻⁵¹ of the exact |s|/(na·nb), and distinct
    # exact values differ by at least 1/(na·nb).  So a run end with
    # |s| < top − na·nb·2⁻⁵⁰ evaluates below the run end holding top, and
    # cannot be the maximum; for na·nb < 2⁵⁰ only exact ties of top
    # remain.  The expression is evaluated at every run end left.
    pos = np.flatnonzero(mag >= max(top - (na * nb >> 50), 1))
    count = pos + 1
    rank_a = (s[pos] + count * na) // n
    return float(np.abs(rank_a / na - (count - rank_a) / nb).max())


def _levy_feasible(eps: float, a: np.ndarray, b: np.ndarray) -> bool:
    # F(x) <= G(x+eps)+eps: F jumps at a-points and is flat after, G(x+eps)
    # is nondecreasing, so the binding x are exactly the a-points.
    na, nb = a.size, b.size
    fa = np.arange(1, na + 1) / na
    g_right = np.searchsorted(b, a + eps, side="right") / nb
    if np.any(fa > g_right + eps + 1e-12):
        return False
    # G(x-eps)-eps <= F(x): G(x-eps) jumps at x = b_j + eps, F is smallest
    # at the left end of each flat stretch.
    gb = np.arange(1, nb + 1) / nb
    f_right = np.searchsorted(a, b + eps, side="right") / na
    return not np.any(gb - eps > f_right + 1e-12)


def levy_distance_1d(a, b) -> float:
    """Smallest ε with G(x−ε)−ε ≤ F(x) ≤ G(x+ε)+ε for the empirical CDFs.

    ε = 1 is always feasible (vertical slack alone), so the radius lives in
    [0, 1]; bisection against the exact breakpoint feasibility check.
    NaN is rejected.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sort puts NaN last
        raise ValueError("samples must not contain NaN")
    if _levy_feasible(0.0, a, b):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _levy_feasible(mid, a, b):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# sup-over-balls / sup-over-half-spaces estimators
# ---------------------------------------------------------------------------

def _bootstrap_stderr(ra: np.ndarray, rb: np.ndarray, n_boot: int,
                      rng: np.random.Generator) -> float:
    """Standard deviation of the KS statistic over ``n_boot`` resamples
    (with replacement) of ``ra`` and of ``rb``.

    Every resampled value is a pooled value, so the resample's ECDFs can be
    read on the one pooled order of ``ra`` ∪ ``rb``: a replicate's count at
    a distinct pooled value is the cumulative sum, in pooled order, of how
    often each original entry was drawn.  At a value that was not drawn both
    ECDFs equal their values at the nearest drawn value below it (or are
    both 0), so the supremum over all pooled values is the resample's KS
    statistic, with the same integer counts and the same divisions.
    """
    if n_boot < 2:
        return 0.0
    na, nb = ra.size, rb.size
    order, rank_a, rank_b = _pooled_ranks(ra, rb)
    from_a = order < na
    a_order, b_order = order[from_a], order[~from_a] - na
    # every replicate reuses these buffers: one count row per sample, its
    # counts in pooled order, cum_x[r] (draws among the r smallest entries
    # of x: whole numbers, so exact in float) and x's ECDF at each distinct
    # pooled value.  Every index is in range, and take's default
    # mode="raise" would copy ``out`` on each call.
    row_a, row_b = np.empty(na), np.empty(nb)
    sorted_a, sorted_b = np.empty(na), np.empty(nb)
    cum_a, cum_b = np.zeros(na + 1), np.zeros(nb + 1)
    ecdf_a, ecdf_b = np.empty(rank_a.size), np.empty(rank_b.size)
    vals = np.empty(n_boot)
    for k in range(n_boot):
        np.take(_resample_counts(na, 1, rng, row_a), a_order, out=sorted_a,
                mode="clip")
        np.cumsum(sorted_a, out=cum_a[1:])
        np.take(_resample_counts(nb, 1, rng, row_b), b_order, out=sorted_b,
                mode="clip")
        np.cumsum(sorted_b, out=cum_b[1:])
        np.take(cum_a, rank_a, out=ecdf_a, mode="clip")
        np.take(cum_b, rank_b, out=ecdf_b, mode="clip")
        ecdf_a /= na
        ecdf_b /= nb
        ecdf_a -= ecdf_b
        vals[k] = np.abs(ecdf_a, out=ecdf_a).max()
    return float(vals.std(ddof=1))


def _sup_ks(sa: Sample, sb: Sample, pairs, n_boot: int,
            rng: np.random.Generator, search_set: str) -> DistanceEstimate:
    """Max of the exact 1-D KS statistic over the candidate ``(a, b)``
    pairs, the first on a tie, with the bootstrap stderr at that pair.

    The best pair is kept as a copy: a pair may be a view into a buffer
    that ``pairs`` overwrites when it builds the next block.  Each pair is
    dropped before the next is drawn, so a pair that is a fresh array is
    freed first."""
    best_val, best = -1.0, None
    for a, b in pairs:
        val = ks_two_sample_1d(a, b)
        if val > best_val:
            best_val, best = val, (a.copy(), b.copy())
        del a, b
    return DistanceEstimate(value=best_val,
                            stderr=_bootstrap_stderr(*best, n_boot, rng),
                            n_mc=min(sa.n, sb.n), search_set=search_set,
                            flags=("lower_estimate",))


def _check_search(sa: Sample, sb: Sample, name: str, n_random: int,
                  n_boot: int) -> None:
    if sa.dim != sb.dim:
        raise ValueError(f"dimension mismatch: {sa.dim} != {sb.dim}")
    if n_random < 0:
        raise ValueError(f"{name} must be >= 0, got {n_random}")
    # one replicate has no spread to report
    if n_boot < 0 or n_boot == 1:
        raise ValueError(f"n_boot must be 0 or >= 2, got {n_boot}")


def _radii(xt: np.ndarray, t: np.ndarray) -> np.ndarray:
    """‖x − t‖ for each column x of the (d, n) array ``xt``.

    The squares are added one coordinate after another, left to right, as
    ``np.linalg.norm(x - t, axis=1)`` does on the (n, d) rows while d < 8,
    so the radii are bit-identical to it there; from d = 8 numpy's pairwise
    summation differs by a few ulp.  Reducing over the long axis instead of
    the length-d one is several times faster.
    """
    r = xt - t[:, None]
    r *= r
    s = np.add.reduce(r, axis=0)
    return np.sqrt(s, out=s)


def delta_B_hat(sa: Sample, sb: Sample, n_centers: int = 256, seed: int = 0,
                n_boot: int = 100) -> DistanceEstimate:
    """Lower estimate of the uniform distance over Euclidean balls.

    For each candidate center t the d-dimensional problem collapses to an
    exact 1-D KS statistic on the radii ‖row − t‖; the estimate is the max
    over centers.  Candidate centers: the origin, ``n_centers`` Gaussian
    draws scaled by the pooled trace(Σ̂)^{1/2}, and points on the ±
    canonical axes at the same scale.  The stderr is a row bootstrap
    at the maximizing center, so it reflects sampling noise of the KS value
    there, not search-set variability.
    """
    _check_search(sa, sb, "n_centers", n_centers, n_boot)
    d = sa.dim
    tr = 0.5 * (np.trace(sa.covariance()) + np.trace(sb.covariance()))
    scale = math.sqrt(max(tr, 1e-300))
    g = substream(seed, "delta_B:centers", 0).standard_normal((n_centers, d))
    axes = scale * np.eye(d)
    centers = np.concatenate([np.zeros((1, d)), scale * g, axes, -axes])
    xa, xb = sa.data.T.copy(), sb.data.T.copy()
    radii = ((_radii(xa, t), _radii(xb, t)) for t in centers)
    return _sup_ks(sa, sb, radii, n_boot,
                   substream(seed, "delta_B:stderr", 0),
                   f"balls:origin+{n_centers}gaussian"
                   f"+{2 * d}axes@scale=trace^0.5")


def _projections(xa: np.ndarray, xb: np.ndarray, dirs: np.ndarray):
    """Yield ``(xa @ u, xb @ u)`` for each row u of ``dirs``, in order.

    The directions are split into near-equal blocks of at most ``step``,
    so a block's two projections hold at most ``tensors.CHUNK_CELLS`` cells
    unless three directions already exceed it.  A step of at least 3 keeps
    every block at least 2 wide (k ≥ 2): a one-column product goes through
    GEMV, whose last bits can differ from the GEMM's.  Each block is
    ``x @ block.T``, the orientation of one product over all directions,
    whose bits it repeats (checked at d ≤ 16); with OpenBLAS 0.3.31 the
    transposed ``block @ x.T`` rounds some entries differently once a block
    is 16 directions wide.  Every block's two products are written into one
    buffer allocated per call, so no block allocates; the rows yielded are
    strided views into that buffer, valid until the next block is built.
    """
    k = dirs.shape[0]
    na, nb = xa.shape[0], xb.shape[0]
    step = max(3, tensors.CHUNK_CELLS // (na + nb))
    blocks = np.array_split(dirs, -(-k // step))
    buf = np.empty((na + nb) * blocks[0].shape[0])
    for block in blocks:
        m = block.shape[0]
        pa = np.matmul(xa, block.T, out=buf[:na * m].reshape(na, m))
        pb = np.matmul(xb, block.T,
                       out=buf[na * m:(na + nb) * m].reshape(nb, m))
        yield from zip(pa.T, pb.T)


def delta_H_hat(sa: Sample, sb: Sample, n_dirs: int = 256, seed: int = 0,
                n_boot: int = 100) -> DistanceEstimate:
    """Lower estimate of the uniform distance over half-spaces.

    Max over unit directions (uniform on the sphere plus canonical axes) of
    the exact 1-D KS statistic on the projections.  Sign flips of a
    direction leave the KS value unchanged, so only +axes are included.

    The projections are built a block of directions at a time, so beyond
    the two samples the working set is about ``tensors.CHUNK_CELLS`` cells
    plus O(na + nb) for the KS statistic and the best pair, whatever
    ``n_dirs`` is.
    """
    _check_search(sa, sb, "n_dirs", n_dirs, n_boot)
    d = sa.dim
    g = substream(seed, "delta_H:dirs", 0).standard_normal((n_dirs, d))
    dirs = np.concatenate([g / np.linalg.norm(g, axis=1, keepdims=True),
                           np.eye(d)], axis=0)
    return _sup_ks(sa, sb, _projections(sa.data, sb.data, dirs), n_boot,
                   substream(seed, "delta_H:stderr", 0),
                   f"halfspaces:{n_dirs}sphere+{d}axes")


def _search(kind: str, sa: Sample, sb: Sample, n_candidates: int, seed: int,
            n_boot: int) -> DistanceEstimate:
    """The ball (``kind == "ball"``, ``n_candidates`` centers) or
    half-space (``n_candidates`` directions) distance estimate."""
    if kind == "ball":
        return delta_B_hat(sa, sb, n_centers=n_candidates, seed=seed,
                           n_boot=n_boot)
    return delta_H_hat(sa, sb, n_dirs=n_candidates, seed=seed, n_boot=n_boot)


def same_law_threshold(d: int, n: int, estimator: str = "ball",
                       n_null: int = 200, n_cal: int = 4096,
                       seed: int = 0, n_centers: int = 64) -> float:
    """Empirical null threshold for "the two samples share a law".

    Calibrates on ``n_null`` pairs of standard-Gaussian samples of size
    ``n_cal`` run through the *same* search policy, takes the
    ``NULL_QUANTILE`` order statistic times ``NULL_MARGIN``, and rescales to
    the target size by sqrt(n_cal/n) (the KS-max null scale).  Calibration at a smaller n_cal
    keeps the setup cost flat while n grows.
    """
    if estimator not in ("ball", "halfspace"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_null < 1:
        raise ValueError(f"n_null must be >= 1, got {n_null}")
    if n_cal < 1:
        raise ValueError(f"n_cal must be >= 1, got {n_cal}")
    vals = np.empty(n_null)
    for run in range(n_null):
        rng = substream(seed, f"null:{estimator}", run)
        a = Sample(rng.standard_normal((n_cal, d)))
        b = Sample(rng.standard_normal((n_cal, d)))
        vals[run] = _search(estimator, a, b, n_centers, seed, 0).value
    q = float(np.quantile(vals, NULL_QUANTILE, method="higher"))
    return q * NULL_MARGIN * math.sqrt(n_cal / n)


# ---------------------------------------------------------------------------
# anti-concentration probe
# ---------------------------------------------------------------------------

def anti_concentration_probe(d: int, eps: float) -> float:
    """sup_r [P(χ_d ≤ r+ε) − P(χ_d ≤ r)] / ε over 4001 radii in [0, √d + 6].

    Probes how much standard-Gaussian mass a thin spherical shell can hold,
    per unit thickness; stays bounded by the χ_d density maximum (≈ 0.8 at
    d = 1, decreasing toward (2π·½)^{-1/2} ≈ 0.56) uniformly in d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    r = np.linspace(0.0, math.sqrt(d) + 6.0, 4001)
    from scipy import special  # deferred: scipy's import dominates start-up
    cdf_hi = special.gammainc(d / 2.0, (r + eps) ** 2 / 2.0)
    cdf_lo = special.gammainc(d / 2.0, r ** 2 / 2.0)
    return float(((cdf_hi - cdf_lo) / eps).max())


# ---------------------------------------------------------------------------
# remainder scaling for the mixed-normal family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Log-log fit of the coupled remainder's squared magnitude against d."""

    slope: float
    stderr: float
    d_list: tuple[int, ...]
    median_sq: tuple[float, ...]


def portnoy_scaling_experiment(d_list, n: int, reps: int,
                               seed: int = 0) -> ScalingFit:
    """Scaling in d of the remainder ‖S_n‖² − ‖Z‖² for the mixed-normal law.

    Rows are X_i = Z_i·u_i (u_i scalar standard normal), so conditionally on
    u the normalized sum satisfies S_n = σ_u·Z with σ_u² = n⁻¹Σu_i² and
    Z ~ N(0, I_d) independent of u.  The coupled remainder is therefore
    *exactly* D = ‖Z‖²(σ_u² − 1); each replicate realizes σ_u² from n fresh
    normals and ‖Z‖² from d fresh normals.  We fit the slope of
    log median(D²) against log d: median(D²) scales like d²/n, matching the
    claimed remainder rate in both parameters (median|D| alone scales like
    d·n^{-1/2}, i.e. the square root of that rate).
    """
    d_list = tuple(int(d) for d in d_list)
    if len(d_list) < 2 or any(a >= b for a, b in zip(d_list, d_list[1:])):
        raise ValueError("d_list must be ascending with at least two entries")
    if any(d < 1 or d > n for d in d_list):
        raise ValueError("each d must satisfy 1 <= d <= n")
    if reps < 30:
        raise ValueError("reps must be >= 30 for a usable median")

    med_sq = []
    for idx, d in enumerate(d_list):
        rng = substream(seed, "portnoy_scaling", idx)
        u = rng.standard_normal((reps, n))
        sigma2_u = np.mean(u * u, axis=1)
        z = rng.standard_normal((reps, d))
        z2 = np.sum(z * z, axis=1)
        rem = z2 * (sigma2_u - 1.0)
        med_sq.append(float(np.median(rem ** 2)))

    x = np.log(np.asarray(d_list, dtype=float))
    y = np.log(np.asarray(med_sq))
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = len(d_list) - 2
    if dof > 0:
        stderr = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    else:
        stderr = 0.0
    return ScalingFit(slope=slope, stderr=stderr, d_list=d_list,
                      median_sq=tuple(med_sq))
