"""Moment tensors in Sym² form, SPD covariance wrappers and sample containers.

The bound engine reads the third and fourth moments A_k = E[X^{⊗k}] through
their Frobenius norm ‖A‖_F and symmetric operator norm
‖A‖ = sup_{‖v‖=1} |⟨A, v^{⊗k}⟩|.

A moment is held in the basis of symmetric d×d matrices (Nie & Wang, SIAM J.
Matrix Anal. Appl. 35(3), 2014).  With D = d(d+1)/2, m(v) ∈ R^D holds the
products v_i·v_j for i ≤ j (``np.triu_indices`` order), scaled by √2 off the
diagonal, so that ⟨m(u), m(v)⟩ = ⟨u, v⟩².  Order 3 is the d×D matrix
C = E[X m(X)ᵀ] and order 4 the D×D matrix G = E[m(X) m(X)ᵀ].  m is an
isometry from symmetric matrices, so ‖C‖_F = ‖A₃‖_F and ‖G‖_F = ‖A₄‖_F, and
both forms are linear in the moment.  A form holds at most 2^28 cells
(d ≤ 180 at order 4).

``empirical_moment`` adds one GEMM per chunk of rows of the products
x_i·x_j (i ≤ j) and scales the sum once, and ``operator_norm`` runs every
power iteration start at once, one GEMM with C or G per step.  Both keep
their blocks within ``CHUNK_CELLS`` cells, so beyond the form their memory
grows with neither n nor the number of starts.
The Efron kernel's count block and the half-space projection blocks share
the budget: 2 MB of 8-byte cells, one core's L2 cache on the benchmark host,
so a block is still in cache when its GEMM reads it.
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

# hard cap on the cells of a moment form: d·D at order 3, D² at order 4
MAX_FORM_CELLS = 2 ** 28

# relative tolerance for the eigendecomposition reconstruction check
SPD_RECONSTRUCTION_RTOL = 1e-10

# SPD matrices with condition number above this are refused by inv_sqrt()
SPD_MAX_CONDITION = 1e12


class TensorShapeError(ValueError):
    """Raised when a tensor's shape is inconsistent with (order, dim)."""


class SpdError(ValueError):
    """Raised when a matrix fails the symmetric-positive-definite contract."""


def _form_shape(order: int, dim: int) -> tuple:
    """Shape of the Sym² form of an order-k tensor on R^d: (d, D) at order 3,
    (D, D) at order 4, at most ``MAX_FORM_CELLS`` cells."""
    if dim <= 0:
        raise TensorShapeError(f"dim must be positive, got {dim}")
    if order not in (3, 4):
        raise TensorShapeError(f"order must be 3 or 4, got {order}")
    sym = dim * (dim + 1) // 2
    shape = (dim if order == 3 else sym, sym)
    if shape[0] * shape[1] > MAX_FORM_CELLS:
        raise TensorShapeError(
            f"the order-{order} moment form at dim {dim} would need "
            f"{shape[0] * shape[1]} > {MAX_FORM_CELLS} cells"
        )
    return shape


@dataclass(frozen=True)
class MomentTensor:
    """A symmetric order-k tensor on R^d (k = 3, 4), typically a moment
    E[X^{⊗k}], held in its Sym² form.

    ``data`` is the d×D matrix C with A(·, v, v) = C·m(v) at order 3 and the
    symmetric D×D matrix G with ⟨A, v^{⊗4}⟩ = m(v)ᵀ G m(v) at order 4 (see
    the module docstring for m).
    """

    order: int
    dim: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = _form_shape(self.order, self.dim)
        arr = np.asarray(self.data, dtype=float)
        if arr.shape != shape:
            raise TensorShapeError(f"expected shape {shape}, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    # ---- algebra ---------------------------------------------------------
    def __sub__(self, other: "MomentTensor") -> "MomentTensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise TensorShapeError("tensor shapes do not match")
        return MomentTensor(self.order, self.dim, self.data - other.data)


class SpdMatrix:
    """A symmetric positive-definite matrix with a cached eigendecomposition.

    The decomposition is computed once at construction and validated:
    every entry must be finite, the input must be symmetric (up to a scaled
    tolerance), every eigenvalue must be strictly positive, and
    Q diag(λ) Qᵀ must reproduce the input to 1e-10 relative Frobenius error.
    """

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpdError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise SpdError("matrix has non-finite entries")
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

# cells of one block that a chunked kernel builds at once: the p(x) blocks
# (D × rows) of empirical_moment, the start blocks of operator_norm, the
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


def _sym2_basis(d: int):
    """The pairs i ≤ j of the Sym² coordinates and their weights w (1 on the
    diagonal, √2 off it): m(v) = w ∘ p(v) for the products p(v) = v_i·v_j."""
    i, j = np.triu_indices(d)
    return i, j, np.where(i == j, 1.0, math.sqrt(2.0))


def _pair_products(xt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p(x) for every column x of ``xt`` (d × rows), written into ``out``
    (D × rows) one slice of contiguous rows at a time, so no temporary of
    the block's size is made."""
    d, col = xt.shape[0], 0
    for i in range(d):
        np.multiply(xt[i], xt[i:], out=out[col:col + d - i])
        col += d - i
    return out


def empirical_moment(sample: Sample, order: int) -> MomentTensor:
    """Average outer power n^{-1} Σ_i x_i^{⊗k} in its Sym² form.

    Per chunk of rows whose D × rows block of products p(x) stays within
    ``CHUNK_CELLS`` cells, one GEMM adds Σ x_i p(x_i)ᵀ (order 3) or
    Σ p(x_i) p(x_i)ᵀ (order 4).  The chunk is transposed first, so every
    product is a contiguous row; the transposed chunk, the block and the
    GEMM's product are reused across chunks, and the weights of m = w ∘ p
    scale the sum once.  Only orders 3 and 4 are accepted: they are the
    moments the bounds read.
    """
    shape = _form_shape(order, sample.dim)
    x, n, d, sym = sample.data, sample.n, sample.dim, shape[1]
    step = max(1, min(n, CHUNK_CELLS // sym))
    xt_buf, block_buf = np.empty(d * step), np.empty(sym * step)
    acc = np.zeros(shape)
    prod = np.empty(shape)
    for start in range(0, n, step):
        rows = x[start:start + step]
        r = rows.shape[0]
        xt = xt_buf[:d * r].reshape(d, r)
        np.copyto(xt, rows.T)
        p = _pair_products(xt, block_buf[:sym * r].reshape(sym, r))
        np.matmul(xt if order == 3 else p, p.T, out=prod)
        acc += prod
    acc /= n
    w = _sym2_basis(d)[2]
    acc *= w
    if order == 4:
        acc *= w[:, None]
    return MomentTensor(order, d, acc)


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


def _power_block(form: np.ndarray, v: np.ndarray, order: int,
                 shift: float):
    """Shifted power iteration of the rows of ``v`` on A, where ``form`` is
    the Sym² form of A.  Returns, per start, the final Rayleigh value
    f(v) = ⟨A, v^{⊗k}⟩, its iteration count and whether it met the
    fixed-point test; a start stops as soon as it converges or its update
    vanishes."""
    s, d = v.shape
    iu, ju, weight = _sym2_basis(d)
    u_block = np.empty((s, d, d)) if order == 4 else None

    def contract(rows):
        # A(·, v, …, v) for every row v, through m(v) and one GEMM; the
        # starts are few, so m(v) is one fancy product
        m = rows[:, iu] * rows[:, ju] * weight
        if order == 3:
            return m @ form.T
        # G·m(v) is m(U(v)) for the symmetric U(v) = A(·, ·, v, v)
        u = u_block[:rows.shape[0]]
        u[:, iu, ju] = u[:, ju, iu] = m @ form / weight
        return np.matmul(u, rows[:, :, None])[:, :, 0]

    fval = np.empty(s)
    iters = np.full(s, POWER_MAX_ITER)
    converged = np.zeros(s, dtype=bool)
    active = np.arange(s)
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
    matrix, contracted through the Sym² form: A(·, v, v) = C·m(v) at order
    3, and A(·, v, v, v) = U(v)·v at order 4, where the symmetric d×d U(v)
    is read off G·m(v).  A step is one GEMM with the form, in blocks of
    starts whose U(v) fit in ``CHUNK_CELLS`` cells, and a start leaves its
    block once it converges.  The result is always a lower bound on the
    true norm; ``converged`` reports whether every start reached the
    fixed-point tolerance, and ``iterations`` sums the steps of all starts.
    An order-4 input must be a fourth-moment tensor, whose form 𝔼⟨X, v⟩⁴ is
    never negative: for any other order-4 tensor the result can miss a
    negative extreme of f.
    """
    k, d, data = tensor.order, tensor.dim, tensor.data
    v = _power_starts(d)
    # monotonicity shift: |f''| along the sphere is bounded by k(k-1)·‖A‖_F,
    # so this shift convexifies the update for every start
    shift = k * float(np.sqrt(np.sum(data ** 2))) + 1e-30
    # a block's m(v) rows, G·m(v) and U(v) each fit in CHUNK_CELLS cells
    step = max(1, CHUNK_CELLS // (d * d))
    fval, iters, converged = (np.concatenate(parts) for parts in zip(*(
        _power_block(data, v[i:i + step], k, shift)
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
