"""Dense moment tensors, SPD covariance wrappers and sample containers.

The quantities consumed by the bound engine are the third and fourth moment
tensors E[X^{⊗k}] (k = 3, 4) together with two norms:

* Frobenius norm ‖A‖_F,
* symmetric operator norm ‖A‖ = sup_{‖v‖=1} |⟨A, v^{⊗k}⟩|.

Everything is stored densely; a tensor may hold at most 2^28 entries
(d ≤ 128 for order 4).

The two hot kernels are matrix products on unfoldings.  ``empirical_moment``
forms the d^⌊k/2⌋×d^⌈k/2⌉ unfolding of the moment as one GEMM of row-wise
Kronecker powers per row chunk, and ``operator_norm`` runs every power
iteration start at once, one GEMM with the d×d^(k−1) unfolding per step.
Both build their Kronecker blocks in pieces of at most ``CHUNK_CELLS``
cells, so beyond the dense tensor itself their memory does not grow with n
or with the number of starts.  The bootstrap's Efron kernel counts its
resamples into one reused block, and the half-space search projects its
samples onto blocks of directions, under the same budget.  The budget is
2 MB of 8-byte cells, one core's L2 cache on the benchmark host, so a block
is still in cache when its GEMM reads it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "MomentTensor",
    "SpdMatrix",
    "Sample",
    "OperatorNormResult",
    "empirical_moment",
    "frobenius_norm",
    "operator_norm",
    "whiten",
    "hermite_value",
    "hermite_interval_integral",
]

# hard cap on dense tensor storage: d**order must stay below this
MAX_DENSE_ENTRIES = 2 ** 28

# relative tolerance for the eigendecomposition reconstruction check
SPD_RECONSTRUCTION_RTOL = 1e-10

# SPD matrices with condition number above this are refused by inv_sqrt()
SPD_MAX_CONDITION = 1e12


class TensorShapeError(ValueError):
    """Raised when a tensor's shape is inconsistent with (order, dim)."""


class SpdError(ValueError):
    """Raised when a matrix fails the symmetric-positive-definite contract."""


def _check_dense_size(order: int, dim: int) -> None:
    if dim <= 0:
        raise TensorShapeError(f"dim must be positive, got {dim}")
    if order < 1:
        raise TensorShapeError(f"order must be >= 1, got {order}")
    if dim ** order > MAX_DENSE_ENTRIES:
        raise TensorShapeError(
            f"dense tensor of order {order} and dim {dim} would need "
            f"{dim ** order} > {MAX_DENSE_ENTRIES} entries"
        )


@dataclass(frozen=True)
class MomentTensor:
    """A dense order-k tensor on R^d, typically a moment E[X^{⊗k}].

    ``data`` has shape ``(dim,) * order``.  Entries are stored in full even
    for symmetric tensors; symmetry is the common case but not enforced,
    since differences of moment tensors remain symmetric anyway.
    """

    order: int
    dim: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_dense_size(self.order, self.dim)
        arr = np.asarray(self.data, dtype=float)
        if arr.shape != (self.dim,) * self.order:
            raise TensorShapeError(
                f"expected shape {(self.dim,) * self.order}, got {arr.shape}"
            )
        object.__setattr__(self, "data", arr)

    # ---- algebra ---------------------------------------------------------
    def __sub__(self, other: "MomentTensor") -> "MomentTensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise TensorShapeError("tensor shapes do not match")
        return MomentTensor(self.order, self.dim, self.data - other.data)


class SpdMatrix:
    """A symmetric positive-definite matrix with a cached eigendecomposition.

    The decomposition is computed once at construction and validated:
    the input must be symmetric (up to a scaled tolerance), every eigenvalue
    must be strictly positive, and Q diag(λ) Qᵀ must reproduce the input to
    1e-10 relative Frobenius error.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpdError(f"expected a square matrix, got shape {m.shape}")
        scale = float(np.abs(m).max()) if m.size else 0.0
        if scale == 0.0:
            raise SpdError("zero matrix is not positive definite")
        if not np.allclose(m, m.T, atol=1e-8 * scale, rtol=0.0):
            raise SpdError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
        eigval, eigvec = np.linalg.eigh(m)
        if eigval[0] <= 0.0:
            raise SpdError(f"matrix is not positive definite (min eigenvalue "
                           f"{eigval[0]:.3e})")
        recon = (eigvec * eigval) @ eigvec.T
        err = np.linalg.norm(recon - m) / np.linalg.norm(m)
        if err > SPD_RECONSTRUCTION_RTOL:
            raise SpdError(f"eigendecomposition reconstruction error {err:.3e} "
                           f"exceeds {SPD_RECONSTRUCTION_RTOL:.1e}")
        self.matrix = m
        self.eigenvalues = eigval
        self.eigenvectors = eigvec

    @classmethod
    def coerce(cls, matrix) -> "SpdMatrix":
        """``matrix`` itself when it is already an SpdMatrix, else a
        validated SpdMatrix built from it."""
        return matrix if isinstance(matrix, cls) else cls(matrix)

    # ---- basic queries ----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def operator_norm(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def condition_number(self) -> float:
        return self.operator_norm / self.min_eigenvalue

    # ---- functional calculus ----------------------------------------------
    def _apply(self, f) -> np.ndarray:
        return (self.eigenvectors * f(self.eigenvalues)) @ self.eigenvectors.T

    def sqrt(self) -> np.ndarray:
        return self._apply(np.sqrt)

    def inv_sqrt(self) -> np.ndarray:
        """Σ^{-1/2}.  Refuses ill-conditioned inputs rather than amplifying
        noise: condition numbers above 1e12 raise :class:`SpdError`."""
        if self.condition_number > SPD_MAX_CONDITION:
            raise SpdError(
                f"condition number {self.condition_number:.3e} exceeds "
                f"{SPD_MAX_CONDITION:.1e}; refusing to form an inverse square root"
            )
        return self._apply(lambda lam: lam ** -0.5)


@dataclass
class Sample:
    """An n×d data matrix with provenance (seed and label)."""

    data: np.ndarray
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"sample data must be 2-D, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("sample contains non-finite entries")
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def mean(self) -> np.ndarray:
        return self.data.mean(axis=0)

    def covariance(self) -> np.ndarray:
        """Biased (divide by n) empirical covariance."""
        centered = self.data - self.mean()
        return centered.T @ centered / self.n

    # ---- CSV round-trip ----------------------------------------------------
    def to_csv(self, path_or_buf) -> None:
        close = False
        if isinstance(path_or_buf, (str,)):
            fh = open(path_or_buf, "w", newline="")
            close = True
        else:
            fh = path_or_buf
        try:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.dim)])
            for row in self.data:
                writer.writerow([repr(float(v)) for v in row])
        finally:
            if close:
                fh.close()

    @classmethod
    def from_csv(cls, path_or_buf, label: str = "") -> "Sample":
        close = False
        if isinstance(path_or_buf, str):
            fh = open(path_or_buf, "r", newline="")
            close = True
        else:
            fh = path_or_buf
        try:
            header = next(csv.reader(fh), None)
            with warnings.catch_warnings():
                # an empty body is reported below, not as loadtxt's warning
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(fh, delimiter=",", comments=None,
                                 quotechar='"', ndmin=2)
        finally:
            if close:
                fh.close()
        if header is None:
            raise ValueError("CSV sample is empty")
        if arr.size == 0:
            raise ValueError("CSV sample has a header but no rows")
        if arr.shape[1] != len(header):
            raise ValueError("CSV rows do not match the header width")
        return cls(arr, label=label)


# --------------------------------------------------------------------------
# moment computation and norms
# --------------------------------------------------------------------------

# cells of one block that a chunked kernel builds at once: the row-wise
# Kronecker blocks (rows × d^m) of empirical_moment and operator_norm, the
# count block (replicates × n) of bootstrap._resample_means and the
# projection blocks (directions × pooled rows) of distances.delta_H_hat; 2 MB
# of 8-byte cells, one core's L2 cache on the benchmark host
CHUNK_CELLS = 2 ** 18

# operator_norm's power iteration: random starts beyond the canonical ones,
# iteration cap per start, relative fixed-point tolerance, and the seed of
# the random starts
POWER_RESTARTS = 8
POWER_MAX_ITER = 200
POWER_TOL = 1e-12
POWER_SEED = 0


def _kron_rows(x: np.ndarray, power: int) -> np.ndarray:
    """Row-wise Kronecker power (power ≥ 1): row i is x_i^{⊗power} flattened
    in C order, so that it pairs with a C-order unfolding of a dense
    tensor."""
    out = x
    for _ in range(power - 1):
        out = (out[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
    return out


def _unfolded_power_sum(block: np.ndarray, a: int, b: int) -> np.ndarray:
    """Σ_i (x_i^{⊗a})(x_i^{⊗b})ᵀ over the rows of ``block``: a d^a×d^b GEMM
    (one Kronecker block serves both sides when a = b)."""
    right = _kron_rows(block, b)
    left = right if a == b else _kron_rows(block, a)
    return left.T @ right


def _check_order(order: int) -> None:
    if order not in (3, 4):
        raise ValueError(f"order must be 3 or 4, got {order}")


def empirical_moment(sample: Sample, order: int) -> MomentTensor:
    """Average outer power n^{-1} Σ_i x_i^{⊗k} as a dense tensor.

    Writing k = a + b with a = ⌊k/2⌋, the d^a×d^b unfolding of the moment is
    the GEMM Σ_i (x_i^{⊗a})(x_i^{⊗b})ᵀ, accumulated over row chunks whose
    Kronecker blocks stay within ``CHUNK_CELLS`` cells.  Only orders 3 and 4
    are accepted: they are the moments the bounds read.
    """
    _check_order(order)
    _check_dense_size(order, sample.dim)
    x = sample.data
    n, d = x.shape
    a, b = order // 2, order - order // 2
    step = max(1, CHUNK_CELLS // d ** b)
    acc = np.zeros((d ** a, d ** b))
    for start in range(0, n, step):
        acc += _unfolded_power_sum(x[start:start + step], a, b)
    return MomentTensor(order, d, (acc / n).reshape((d,) * order))


def frobenius_norm(tensor: MomentTensor) -> float:
    return float(np.sqrt(np.sum(tensor.data ** 2)))


@dataclass(frozen=True)
class OperatorNormResult:
    """Lower estimate of the symmetric operator norm with diagnostics."""

    value: float
    converged: bool
    iterations: int


def _power_starts(d: int) -> np.ndarray:
    """Unit start vectors as rows: the basis e_i, the pairs (e_i ± e_j)/√2
    for d ≤ 16, then ``POWER_RESTARTS`` (at least one) random directions."""
    rows = [np.eye(d)]
    if d <= 16:
        i, j = np.triu_indices(d, 1)
        pairs = np.zeros((i.size, 2, d))
        r = np.arange(i.size)
        pairs[r, :, i] = 1.0
        pairs[r, :, j] = (1.0, -1.0)
        rows.append(pairs.reshape(-1, d) / np.sqrt(2.0))
    g = np.random.default_rng(POWER_SEED).standard_normal(
        (max(POWER_RESTARTS, 1), d))
    rows.append(g / np.linalg.norm(g, axis=1, keepdims=True))
    return np.concatenate(rows)


def _power_block(unfolded: np.ndarray, v: np.ndarray, order: int,
                 shift: float):
    """Shifted power iteration of the rows of ``v`` on A, where ``unfolded``
    is the d×d^(k−1) unfolding of A.  Returns, per start, the final Rayleigh
    value f(v) = ⟨A, v^{⊗k}⟩, its iteration count and whether it met the
    fixed-point test; a start stops as soon as it converges or its update
    vanishes."""
    def contract(rows):
        # A·v^{⊗(k−1)} for every row v: one GEMM on the unfolding
        return _kron_rows(rows, order - 1) @ unfolded.T

    fval = np.empty(v.shape[0])
    iters = np.full(v.shape[0], POWER_MAX_ITER)
    converged = np.zeros(v.shape[0], dtype=bool)
    active = np.arange(v.shape[0])
    g = contract(v)
    f = np.einsum("ij,ij->i", g, v)
    for it in range(POWER_MAX_ITER):
        w = g + shift * v
        nw = np.linalg.norm(w, axis=1)
        vanished = nw == 0.0  # such a start stops where it is, unconverged
        v_new = w / np.where(vanished, 1.0, nw)[:, None]
        g = contract(v_new)
        f_new = np.einsum("ij,ij->i", g, v_new)
        step = np.linalg.norm(v_new - v, axis=1)
        done = (~vanished & (step < 1e-8)
                & (np.abs(f_new - f)
                   <= POWER_TOL * np.maximum(1.0, np.abs(f_new))))
        v, f = v_new, np.where(vanished, f, f_new)
        stop = vanished | done
        if stop.any():
            fval[active[stop]] = f[stop]
            iters[active[stop]] = it + 1
            converged[active[stop]] = done[stop]
            keep = ~stop
            active, v, g, f = active[keep], v[keep], g[keep], f[keep]
            if not active.size:
                break
    fval[active] = f
    return fval, iters, converged


def operator_norm(tensor: MomentTensor) -> OperatorNormResult:
    """Estimate ‖A‖ = sup_{‖v‖=1} |⟨A, v^{⊗k}⟩| for a symmetric tensor.

    Uses shifted symmetric higher-order power iteration on A from canonical
    basis vectors, normalized e_i ± e_j pairs (small d) and
    ``POWER_RESTARTS`` random unit starts, keeping the largest stationary
    |f(v)| = |⟨A, v^{⊗k}⟩|.  All starts iterate together as the rows of one
    matrix: a step is one GEMM of their row-wise Kronecker powers with the
    d×d^(k−1) unfolding of A, in blocks of rows that keep the Kronecker
    powers within ``CHUNK_CELLS`` cells, and a start leaves its block
    once it converges.  The result is always a lower bound on the true
    norm; ``converged`` reports whether every start reached the fixed-point
    tolerance, and ``iterations`` sums the steps of all starts.  Only
    orders 3 and 4 are accepted.  An order-4 input must be a fourth-moment
    tensor, whose form 𝔼⟨X, v⟩⁴ is never negative: for any other order-4
    tensor the result can miss a negative extreme of f.
    """
    k, d, data = tensor.order, tensor.dim, tensor.data
    _check_order(k)
    v = _power_starts(d)
    # monotonicity shift: |f''| along the sphere is bounded by k(k-1)·‖A‖_F,
    # so this shift convexifies the update for every start
    shift = k * float(np.sqrt(np.sum(data ** 2))) + 1e-30
    unfolded = data.reshape(d, d ** (k - 1))
    step = max(1, CHUNK_CELLS // d ** (k - 1))
    fval, iters, converged = (np.concatenate(parts) for parts in zip(*(
        _power_block(unfolded, v[i:i + step], k, shift)
        for i in range(0, v.shape[0], step))))
    return OperatorNormResult(float(np.nanmax(np.abs(fval), initial=0.0)),
                              bool(converged.all()), int(iters.sum()))


def whiten(sample: Sample, sigma: SpdMatrix) -> Sample:
    """Rows x_i ↦ Σ^{-1/2} x_i (Σ must be well conditioned)."""
    if sigma.dim != sample.dim:
        raise ValueError("covariance dimension does not match the sample")
    w = sample.data @ sigma.inv_sqrt()
    return Sample(w, seed=sample.seed, label=(sample.label + ":whitened").lstrip(":"))


# --------------------------------------------------------------------------
# probabilists' Hermite polynomials and Gaussian-weighted interval integrals
# --------------------------------------------------------------------------


def hermite_value(k: int, x) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k via the three-term recurrence
    He_{j+1}(x) = x·He_j(x) − j·He_{j-1}(x)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * h_prev, h
    return h


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def hermite_interval_integral(k: int, a: float, b: float) -> float:
    """∫_a^b He_k(x) φ(x) dx, exactly.

    For k ≥ 1 the antiderivative of He_k·φ is −He_{k−1}·φ (differentiate and
    use He_k' = k·He_{k−1} together with φ' = −xφ), which vanishes at ±∞.
    k = 0 reduces to the normal CDF difference.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if b < a:
        raise ValueError("need a <= b")
    if k == 0:
        lo = _std_normal_cdf(a) if math.isfinite(a) else 0.0
        hi = _std_normal_cdf(b) if math.isfinite(b) else 1.0
        return hi - lo

    def anti(x: float) -> float:
        if not math.isfinite(x):
            return 0.0
        return -float(hermite_value(k - 1, x)) * _phi(x)

    return anti(b) - anti(a)
