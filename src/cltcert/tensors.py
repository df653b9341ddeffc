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
x_i·x_j (i ≤ j) and scales the sum once; its chunks stay within
``CHUNK_CELLS`` cells, or D // 2 rows at order 4 where that is more (from
d = 38), so beyond the form its memory does not grow with n.
The Efron kernel's count block and the half-space projection blocks share
the budget: 2 MB of 8-byte cells, one core's L2 cache on the benchmark host,
so a block is still in cache when its GEMM reads it; ``frobenius_norm``
sums its squares one budget of cells at a time.  ``operator_norm`` returns
a certified upper end, the least λ_max(H + s·L₀) that a search over the
scalar s meets, plus a rounding allowance (H = ±G or CᵀC, L₀ = I_D −
m(I)m(I)ᵀ): about 60 dense eigensolves of a D×D matrix, and at most three
such matrices beyond the form.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

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
        if not np.isfinite((arr.min(), arr.max())).all():
            raise ValueError("moment form has non-finite entries")
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
    """An n×d data matrix of finite floats with n, d ≥ 1; a 1-D array is
    one column."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"sample data must be 2-D, got ndim={arr.ndim}")
        if 0 in arr.shape:
            raise ValueError("sample needs at least one row and one column, "
                             f"got shape {arr.shape}")
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
    def to_csv(self, path: str) -> None:
        """Write the header ``x1,…,xd`` and the rows, as exact reprs."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.dim)])
            for row in self.data:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path: str) -> "Sample":
        """Read the CSV file at ``path``: one header record, which may be
        quoted and span several lines, then one row of d numbers per line.
        A field may be quoted and blank lines are skipped; the header only
        sets the width d."""
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
        if header is None:
            raise ValueError("CSV sample is empty")
        with warnings.catch_warnings():
            # an empty body is reported below, not as loadtxt's warning
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(path, delimiter=",", comments=None,
                             quotechar='"', ndmin=2,
                             skiprows=reader.line_num)
        if arr.size == 0:
            raise ValueError("CSV sample has a header but no rows")
        if arr.shape[1] != len(header):
            raise ValueError("CSV rows do not match the header width")
        return cls(arr)


# --------------------------------------------------------------------------
# moment computation and norms
# --------------------------------------------------------------------------

# cells of one block that a chunked kernel builds at once: the p(x) blocks
# (D × rows, but at least D // 2 rows at order 4) of empirical_moment, the
# scaled chunks of frobenius_norm, the count block (replicates × n) of
# bootstrap._resample_means and the projection blocks (directions × pooled
# rows) of distances.delta_H_hat; 2 MB of 8-byte cells, one core's L2 cache
# on the benchmark host
CHUNK_CELLS = 2 ** 18


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

    Per chunk of rows, one GEMM adds Σ x_i p(x_i)ᵀ (order 3) or
    Σ p(x_i) p(x_i)ᵀ (order 4).  A chunk's D × rows block of products p(x)
    stays within ``CHUNK_CELLS`` cells, but holds at least half as many
    rows as the product has: each chunk writes and adds the whole product,
    and with fewer rows moving it costs more than the GEMM's work.  At
    order 4 that floor is D // 2 rows, which outweighs the budget from
    d = 38 at 2¹⁸ cells; the block then stays below half the D×D form.
    The chunk is transposed first, so every product is a contiguous row;
    the transposed chunk, the block and the GEMM's product are reused
    across chunks, and the weights of m = w ∘ p scale the sum once.  Only
    orders 3 and 4 are accepted: they are the moments the bounds read.
    """
    shape = _form_shape(order, sample.dim)
    x, n, d, sym = sample.data, sample.n, sample.dim, shape[1]
    step = max(1, min(n, max(CHUNK_CELLS // sym, shape[0] // 2)))
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


def _scale_exponent(data: np.ndarray) -> int:
    """The e with 2^(e−1) ≤ max|data| < 2^e (0 for a zero array), read off
    ``data.max()`` and ``data.min()``: scaling by 2^−e is exact and brings
    every entry below 1 in magnitude."""
    return math.frexp(max(data.max(), -data.min()))[1]


def frobenius_norm(tensor: MomentTensor) -> float:
    """‖A‖_F = ‖form‖_F, as a sum of squares over chunks of at most
    ``CHUNK_CELLS`` cells of the flat form, each scaled by 2^−e (see
    :func:`_scale_exponent`): no form-sized temporary is made and no square
    overflows."""
    flat = tensor.data.ravel(order="K")
    e = _scale_exponent(flat)
    buf = np.empty(min(flat.size, CHUNK_CELLS))
    total = 0.0
    for start in range(0, flat.size, CHUNK_CELLS):
        chunk = flat[start:start + CHUNK_CELLS]
        part = np.ldexp(chunk, -e, out=buf[:chunk.size])
        total += float(part @ part)
    return float(np.ldexp(math.sqrt(total), e))


@dataclass(frozen=True)
class OperatorNormResult:
    """Certified upper end of the symmetric operator norm: ``value`` is at
    least ‖A‖ and ``iterations`` counts the eigenvalue solves behind it.
    ``converged`` is always True, since the search always closes its
    interval; it stays only for the benchmark's tracer, which reads it."""

    value: float
    converged: bool
    iterations: int


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> float:
    """Golden-section search for the minimum of ``f`` on [lo, hi]: the
    midpoint of the last bracket, once it is at most ``tol`` wide."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def operator_norm(tensor: MomentTensor) -> OperatorNormResult:
    """Certified upper bound on ‖A‖ = sup_{‖v‖=1} |⟨A, v^{⊗k}⟩|.

    Take H = ±G at order 4, and H = CᵀC at order 3, whose sup over unit v
    of m(v)ᵀ H m(v) is ‖A₃‖² (Banach 1938).  L₀ = I_D − m(I)m(I)ᵀ vanishes
    on every m(v), so that sup is at most λ_max(H + s·L₀) for every s: the
    first level of the Sym² sum-of-squares hierarchy (Parrilo 2000; Nie &
    Wang 2014).  λ_max(H + s·L₀) is convex in s; a golden-section search
    keeps the least value it meets, plus a rounding allowance.  A side of
    ±G whose value at s = 0 is no larger than the other side's bound is not
    searched.  Beyond the form, at most three D×D matrices are held: H,
    H + s·L₀ and the eigensolver's copy.
    """
    k, d, form = tensor.order, tensor.dim, tensor.data
    if d == 1:  # L₀ = 0: the form is the tensor
        return OperatorNormResult(abs(float(form[0, 0])), True, 0)
    # the norm is homogeneous: scaled by 2^−e, exactly, no entry exceeds 1,
    # so neither CᵀC nor the allowance can overflow
    e = _scale_exponent(form)
    h = np.ldexp(form, -e)
    eps, gemm = np.finfo(float).eps, 0.0
    if k == 3:
        # the computed CᵀC is within γ_d·|C|ᵀ|C| of the exact one, entry by
        # entry (Higham 2002, ch. 3), and ‖|C|ᵀ|C|‖_F ≤ ‖C‖_F²
        gemm = (d + 1) * eps * float(np.vdot(h, h))
        h = h.T @ h
    sym = h.shape[0]
    # the coordinates (i, i), where m(I) is 1
    diag = np.flatnonzero(np.equal(*np.triu_indices(d)))
    block = np.ix_(diag, diag)
    # Allowance.  LAPACK's symmetric eigensolvers are backward stable: the
    # computed λ_max is exact for a matrix within p(D)·ε·‖M‖₂ of M, with p
    # growing modestly (LAPACK Users' Guide, error bounds for the symmetric
    # eigenproblem), and Weyl's inequality makes that a forward bound.
    # Forming M = H + s·L₀ rounds an entry at most twice, by at most
    # ε·(|H_pq| + |s|).  ‖M‖₂ ≤ ‖H‖_F + |s|·‖L₀‖_F, and 4·D·ε times that
    # covers both, with room for the roundings of the sums and the root.
    slack = 4 * sym * eps
    h_frob, l0_frob = np.linalg.norm(h), math.sqrt(sym + d * d - 2 * d)
    work = np.empty_like(h)
    work_diag = work.reshape(-1)[::sym + 1]
    solves = 0

    def bound(s: float) -> float:
        nonlocal solves, least
        np.copyto(work, h)
        work_diag[:] += s
        work[block] -= s
        solves += 1
        value = float(np.linalg.eigvalsh(work)[-1] + gemm
                      + slack * (h_frob + abs(s) * l0_frob))
        least = min(least, value)
        return value

    value = 0.0
    for side in range(k - 2):  # order 3: CᵀC; order 4: G, then −G
        if side:
            np.negative(h, out=h)
        least = math.inf
        if bound(0.0) > value:
            # outside [lo, hi], λ_max(H + s·L₀) exceeds its value at 0: for
            # s > 0 at a unit vector at a coordinate (i, j), i < j, where L₀
            # is 1, and for s < 0 at m(I)/√d, where it is 1 − d
            hi = least - np.delete(np.diag(h), diag).max()
            lo = (h[block].sum() / d - least) / (d - 1)
            # every s tried gives a valid bound, and bound() keeps the least
            _golden_section(bound, lo, hi, 1e-12 * (hi - lo))
            value = max(value, least)
    norm = math.sqrt(value) if k == 3 else value
    return OperatorNormResult(float(np.ldexp(norm, e)), True, solves)


def whiten(sample: Sample, sigma: SpdMatrix) -> Sample:
    """Rows x_i ↦ Σ^{-1/2} x_i (Σ must be well conditioned)."""
    if sigma.dim != sample.dim:
        raise ValueError("covariance dimension does not match the sample")
    return Sample(sample.data @ sigma.inv_sqrt())


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
