"""Bound engine: explicit finite-sample certificates for normal and
bootstrap approximation over Euclidean balls and half-spaces.

Every public ``bound_*``/``delta_*`` operation evaluates one closed-form
inequality term by term and returns a :class:`BoundBreakdown` whose ``total``
is the certified upper bound on the corresponding uniform distance.  Inputs
come in through :class:`MomentSummary`, a flat bag of moment scalars that can
be filled analytically (:func:`summarize_gaussian`) or from data.  Each data
builder fills only what its theorems read, and :data:`THEOREM_TABLE` names
each theorem's regime, i.e. its builder: "sample" (whitened moments),
"same-cov" and "diff-cov" (:func:`summarize_pair`: whitened differences, or
central moments with the covariance gaps and λ₀²), "bootstrap" and "score"
(σ², central moments and Σ's scalars).

The free smoothing parameter β ∈ (0,1) can be tuned per instance with
:func:`optimize_beta`; β = 0.829 (near the minimum of h₁) is a good default.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Callable, Optional

import numpy as np

from cltcert.tensors import (
    MomentTensor,
    Sample,
    SpdMatrix,
    _golden_section,
    empirical_moment,
    frobenius_norm,
    operator_norm,
    whiten,
)

__all__ = [
    "ConstantsLedger",
    "MomentSummary",
    "BoundBreakdown",
    "InfeasibleError",
    "h_funcs",
    "bound_ball_normal",
    "bound_ball_general",
    "bound_halfspace_normal",
    "bound_halfspace_general",
    "bound_ball_symmetric",
    "concentration_consts",
    "bootstrap_delta",
    "delta_W",
    "delta_R",
    "score2_bound",
    "Theorem",
    "THEOREM_TABLE",
    "optimize_beta",
    "verify_constants_constraint",
    "summarize_gaussian",
    "summarize_sample",
    "summarize_pair",
    "bootstrap_summary",
    "score_summary",
    "DEFAULT_BETA",
]

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)
SQRT8 = math.sqrt(8.0)

#: β near the local minimum of h₁; used as the reference point everywhere
DEFAULT_BETA = 0.829


class InfeasibleError(ValueError):
    """A bound's feasibility condition fails for the given (d, n, moments)."""


# ---------------------------------------------------------------------------
# constants ledger
# ---------------------------------------------------------------------------


def _check_number(name: str, v, integral: bool = False) -> None:
    """``ValueError`` unless ``v`` is a finite nonnegative number, and an
    integer if ``integral``; a bool is not a number here."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a number, got {v!r}")
    if not 0 <= v < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if integral and not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")


# relative slack for rounding in MomentSummary's moment inequalities
COVARIANCE_SLACK = 1e-9

# admissible (K, M, a, b) tuples behind the published smoothing constants,
# checked by verify_constants_constraint; M is the constant for order K
CONSTANT_TUPLES = ((3, 54.1, 27.46, 14.0),
                   (4, 9.5, 6.33, 8.5),
                   (6, 2.9, 2.07, 8.5))


@dataclass(frozen=True)
class ConstantsLedger:
    """Absolute constants entering the bounds.

    ``m4/m6`` are the smoothing-inequality constants for matching orders
    K = 4, 6, from :data:`CONSTANT_TUPLES`.  The multipliers ``c_ell2``
    (anti-concentration) and ``c_phi4/c_phi6`` (mollifier derivatives) are
    not computable from the results used here; they are known to be ≥ 1 and
    default to 1, so the derived constants sit at their stated lower values
    (c_b4 = m4, c_b6 = m6).  The half-space bounds use the same fourth-order
    constant and report it as ``c_h4``.  Override via :meth:`with_overrides`.
    """

    m4: float = CONSTANT_TUPLES[1][1]
    m6: float = CONSTANT_TUPLES[2][1]
    c_ell2: float = 1.0
    c_phi4: float = 1.0
    c_phi6: float = 1.0

    def __post_init__(self) -> None:
        for name, v in asdict(self).items():
            _check_number(name, v)
        for name in ("c_ell2", "c_phi4", "c_phi6"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1 (got {getattr(self, name)})")
        if self.c_b4 < CONSTANT_TUPLES[1][1] or self.c_b6 < CONSTANT_TUPLES[2][1]:
            raise ValueError("derived constants fell below their lower values")

    @property
    def c_b4(self) -> float:
        return self.m4 * self.c_ell2 * self.c_phi4

    @property
    def c_b6(self) -> float:
        return self.m6 * self.c_ell2 * self.c_phi6

    def with_overrides(self, **kwargs) -> "ConstantsLedger":
        unknown = sorted(set(kwargs) - set(asdict(self)))
        if unknown:
            raise ValueError(f"unknown ledger constants: {', '.join(unknown)}")
        return replace(self, **kwargs)


def verify_constants_constraint(K: int, M: float, a: float, b: float):
    """Evaluate the five-term optimization constraint behind the smoothing
    constants and report (lhs, lhs ≤ 1).

    The third summand is evaluated with denominator a^{K-1}/2: the admissible
    parameter triples for K = 3, 4, 6 satisfy the constraint (tightly — the
    K = 3 triple reaches 0.99986) in this form, while the variant with
    (a/2)^{K-1} in the denominator rejects all three.
    """
    if K not in (3, 4, 6):
        raise ValueError(f"K must be one of 3, 4, 6; got {K}")
    if min(M, a, b) <= 0:
        raise ValueError("M, a, b must be positive")
    kf = math.factorial(K)
    t1 = a / M
    t2 = 1.5 * (a / 2.0) ** (-(K - 2)) / math.factorial(K - 2) * (2.0 * M + a) / M
    t3 = 4.0 * SQRT2 * b / (a ** (K - 1) / 2.0) * (2.0 * M + a) / (M * kf)
    t4 = 2.0 * SQRT2 / (math.sqrt(kf) * b ** (K - 2))
    t5 = 2.0 ** ((K - 3) / (K - 2)) * 2.6 / M ** (K - 2)
    lhs = t1 + t2 + t3 + t4 + t5
    return lhs, lhs <= 1.0


# ---------------------------------------------------------------------------
# h-functions
# ---------------------------------------------------------------------------


def h_funcs(beta: float):
    """(h₁, h₂, h₃) at β: h₂ = (1−β²)²/β⁴, h₁ = h₂ + 1/((1−β²)β⁴),
    h₃ = 3(1 − (1−β²)²)/β⁴."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    bu2 = 1.0 - beta * beta
    b4 = beta ** 4
    h2 = bu2 * bu2 / b4
    h1 = h2 + 1.0 / (bu2 * b4)
    h3 = 3.0 * (1.0 - bu2 * bu2) / b4
    return h1, h2, h3


# ---------------------------------------------------------------------------
# moment summary
# ---------------------------------------------------------------------------


@dataclass
class MomentSummary:
    """Flat container for every moment scalar the bound formulas consume.

    Only the fields a given bound needs have to be set; ``require`` lists
    missing ones by name.  Conventions: "w" prefixes are moments of the
    whitened vector Σ^{-1/2}X; "c" prefixes are central (X − 𝔼X) moments;
    "raw4_op" is the operator norm of the unwhitened fourth moment.  The
    builders set every tensor "_op" field to the certified upper end of
    :func:`~cltcert.tensors.operator_norm`.
    """

    d: int
    n: int
    # covariance scalars for X (and a second law T where applicable)
    sigma_op: Optional[float] = None
    sigma_frob: Optional[float] = None
    sigma_min_eig: Optional[float] = None
    sigma_cond: Optional[float] = None          # ‖Σ⁻¹‖·‖Σ‖
    sigma_t_op: Optional[float] = None
    sigma_t_min_eig: Optional[float] = None
    cov_gap_frob: Optional[float] = None        # ‖Σ − Σ_T‖_F
    cov_gap_op: Optional[float] = None          # ‖Σ − Σ_T‖
    # whitened X moments
    x_w3_frob: Optional[float] = None
    x_w3_op: Optional[float] = None             # ≥ ‖𝔼(Σ^{-1/2}X)^⊗3‖
    x_w3_max: Optional[float] = None
    x_w3_nonzero: Optional[int] = None
    x_w4_mean: Optional[float] = None           # 𝔼‖Σ^{-1/2}X‖⁴
    x_w4_op: Optional[float] = None             # ≥ ‖𝔼(Σ^{-1/2}X)^⊗4‖
    t_w4_mean: Optional[float] = None
    t_w4_op: Optional[float] = None
    # whitened third-moment difference (same-covariance comparisons)
    dw3_frob: Optional[float] = None
    dw3_op: Optional[float] = None              # ≥ its norm, as x_w3_op
    dw3_max: Optional[float] = None
    dw3_nonzero: Optional[int] = None
    # central/raw unwhitened moments (different-covariance and bootstrap)
    x_c3_frob: Optional[float] = None           # ‖𝔼(X−μ)^⊗3‖_F
    x_c4_mean: Optional[float] = None           # 𝔼‖X−μ‖⁴
    t_c4_mean: Optional[float] = None
    x_raw4_op: Optional[float] = None           # ≥ ‖𝔼(X^⊗4)‖
    t_raw4_op: Optional[float] = None
    d3_frob: Optional[float] = None             # ‖𝔼X^⊗3 − 𝔼T^⊗3‖_F
    d3_op: Optional[float] = None               # ≥ its norm
    d3_max: Optional[float] = None
    d3_nonzero: Optional[int] = None
    lambda0_sq: Optional[float] = None
    # symmetric-case sixth-moment block
    x_m6: Optional[float] = None                # 𝔼‖X‖⁶
    l_m6: Optional[float] = None                # 𝔼‖L‖⁶ of the matching law
    u6_mean: Optional[float] = None             # 𝔼‖U_L‖⁶ (non-normal part)
    z6_mean: Optional[float] = None             # 𝔼‖Z_Σ‖⁶
    d4_frob: Optional[float] = None             # ‖𝔼X^⊗4 − 𝔼Z_Σ^⊗4‖_F
    d4_max: Optional[float] = None
    m6_sym: Optional[float] = None              # max coordinate 6th moment
    lambda_z_sq: Optional[float] = None
    # sub-Gaussian variance factor (user-supplied for certificates) and the
    # largest coordinate variance of the summarized rows, which it must reach
    sigma2: Optional[float] = None
    coord_var_max: Optional[float] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None or f.default is not None:  # d, n and set fields
                _check_number(f.name, v, "int" in f.type)  # d, n, *_nonzero
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be >= 1")
        # any unit-variance direction gives 𝔼(γᵀΣ^{-1/2}X)⁴ ≥ 1
        for name in ("x_w4_op", "t_w4_op"):
            v = getattr(self, name)
            if v is not None and v < 1.0 - 1e-6:
                raise ValueError(
                    f"{name} = {v} violates the lower bound 1 for whitened "
                    f"fourth-moment operator norms")
        self._check_inequalities()

    def _check_inequalities(self) -> None:
        """``ValueError`` for scalars that no law has, with
        ``COVARIANCE_SLACK`` relative slack for rounding: λ_min ≤ ‖Σ‖ ≤ ‖Σ‖_F
        ≤ √d·‖Σ‖, λ_min(Σ_T) ≤ ‖Σ_T‖, ‖Σ − Σ_T‖ ≤ ‖Σ − Σ_T‖_F ≤
        √d·‖Σ − Σ_T‖, λ₀² ≤ λ_min(Σ) and λ_min(Σ_T), 𝔼‖W‖⁴ ≤ d²·‖𝔼W^⊗4‖
        on both sides (𝔼W_i²W_j² ≤ ‖𝔼W^⊗4‖ for each of the d² pairs), for
        each third-moment tensor A ‖A‖_F ≤ d·‖A‖ and ‖A‖_F ≤ max|a|·√nonzero
        (the envelopes of :func:`_surrogates`, which the ball routes take the
        least of), and ‖Σ⁻¹‖·‖Σ‖ ≥ 1, equal to ‖Σ‖/λ_min when all three are
        set."""
        scales = {"": 1.0, "sqrt(d)*": math.sqrt(self.d), "d*": self.d,
                  "d^2*": self.d ** 2}
        checks = [("sigma_min_eig", "sigma_op", ""),
                  ("sigma_op", "sigma_frob", ""),
                  ("sigma_frob", "sigma_op", "sqrt(d)*"),
                  ("sigma_t_min_eig", "sigma_t_op", ""),
                  ("cov_gap_op", "cov_gap_frob", ""),
                  ("cov_gap_frob", "cov_gap_op", "sqrt(d)*"),
                  ("lambda0_sq", "sigma_min_eig", ""),
                  ("lambda0_sq", "sigma_t_min_eig", ""),
                  ("x_w4_mean", "x_w4_op", "d^2*"),
                  ("t_w4_mean", "t_w4_op", "d^2*")]
        for p in ("x_w3_", "dw3_", "d3_"):
            checks.append((p + "frob", p + "op", "d*"))
            nonzero = getattr(self, p + "nonzero")
            if nonzero is not None:
                scale = f"sqrt({p}nonzero)*"
                scales[scale] = math.sqrt(nonzero)
                checks.append((p + "frob", p + "max", scale))
        for lo, hi, scale in checks:
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and (
                    a > scales[scale] * b * (1.0 + COVARIANCE_SLACK)):
                raise ValueError(f"{lo} = {a} violates {lo} <= {scale}{hi} "
                                 f"= {scale}{b}")
        cond, op, lam = self.sigma_cond, self.sigma_op, self.sigma_min_eig
        if cond is None:
            return
        if cond < 1.0 - COVARIANCE_SLACK:
            raise ValueError(f"sigma_cond = {cond} violates sigma_cond >= 1")
        if op is not None and lam is not None and (
                abs(cond * lam - op) > COVARIANCE_SLACK * op):
            raise ValueError(f"sigma_cond = {cond} violates sigma_cond = "
                             f"sigma_op / sigma_min_eig = {op} / {lam}")

    def require(self, *names: str) -> None:
        missing = [nm for nm in names if getattr(self, nm) is None]
        if missing:
            raise ValueError("moment summary is missing: " + ", ".join(missing))

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if getattr(self, f.name) is not None}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MomentSummary":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("moment summary must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError("unknown moment summary fields: "
                             + ", ".join(unknown))
        missing = [name for name in ("d", "n") if name not in payload]
        if missing:
            raise ValueError("moment summary is missing: " + ", ".join(missing))
        return cls(**payload)


def _surrogates(frob, op, mx, nz, d, scale: float = 1.0) -> dict:
    """All available envelopes of a sublinear third-moment functional.

    A sample summary sets the Frobenius norm, which is never above the other
    two (‖A‖_F ≤ d·‖A‖ and ‖A‖_F ≤ max|a|·√nonzero for a symmetric order-3
    tensor); a supplied summary may set any of them."""
    out = {}
    if frob is not None:
        out["frobenius"] = scale * frob
    if op is not None:
        out["operator_dim"] = scale * op * d
    if mx is not None and nz is not None:
        out["max_sparse"] = scale * mx * math.sqrt(nz)
    if not out:
        raise ValueError("no third-moment surrogate available: need a "
                         "Frobenius norm, an operator norm, or max+count")
    return out


def _pick(surr: dict):
    name = min(surr, key=surr.get)
    return surr[name], name


# ---------------------------------------------------------------------------
# breakdown container
# ---------------------------------------------------------------------------


@dataclass
class BoundBreakdown:
    """Per-term evaluation of one bound; ``total`` is the certified value."""

    theorem: str
    beta: Optional[float]
    terms: list  # list[(name, value)]
    inputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = []
        for name, value in self.terms:
            value = float(value)
            if value < -1e-15:
                raise ValueError(f"term {name} is negative: {value}")
            if not math.isfinite(value):
                raise ValueError(f"term {name} is not finite")
            cleaned.append((name, max(value, 0.0)))
        self.terms = cleaned

    @property
    def total(self) -> float:
        return float(sum(v for _, v in self.terms))

    def term(self, name: str) -> float:
        for nm, v in self.terms:
            if nm == name:
                return v
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "theorem": self.theorem,
            "beta": self.beta,
            "terms": [{"name": nm, "value": v} for nm, v in self.terms],
            "total": self.total,
            "inputs": self.inputs,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# ball bounds
# ---------------------------------------------------------------------------


def _normal_breakdown(ms: MomentSummary, theorem: str, beta: float, r3: float,
                      scale: float, weight: float, v4: float, free: float,
                      gauss4: float, inputs: dict) -> BoundBreakdown:
    """The three-term comparison with a law of the same covariance:

        r₃/(√6β³√n) + scale·√((h₁ + weight)·v₄ + free)/√n
                    + (h₁v₄ + h₂·gauss4)/(2√6n),

    where r₃ is the third-moment envelope and v₄ the fourth-moment input.
    """
    h1, h2, _ = h_funcs(beta)
    n = ms.n
    root_n = math.sqrt(n)
    return BoundBreakdown(
        theorem=theorem, beta=beta,
        terms=[("third_moment_sqrt_n", r3 / (SQRT6 * beta ** 3 * root_n)),
               ("smoothed_comparison_sqrt_n",
                scale * math.sqrt((h1 + weight) * v4 + free) / root_n),
               ("expansion_n1", (h1 * v4 + h2 * gauss4) / (2.0 * SQRT6 * n))],
        inputs={"d": ms.d, "n": n, **inputs})


def _gap_breakdown(ms: MomentSummary, theorem: str, beta: float,
                   ledger: ConstantsLedger, lam0: float, gap: float, t1: float,
                   v4: float, v4_small: float, gauss4: float,
                   inputs: dict) -> BoundBreakdown:
    """The four-term comparison of two laws with different covariances,
    normalized by λ₀² (the smaller of their least eigenvalues):

        gap/(√2β²λ₀²) + t₁ + 4√2·c_b4/λ₀²·√(h₁v₄ + gauss4·(v₄' + ½))/√n
                      + 2(h₁v₄ + gauss4·v₄')/(√6λ₀⁴n),

    with t₁ the caller's third-moment term and v₄' the squared-covariance
    input.
    """
    h1 = h_funcs(beta)[0]
    n = ms.n
    return BoundBreakdown(
        theorem=theorem, beta=beta,
        terms=[("covariance_gap", gap / (SQRT2 * beta ** 2 * lam0)),
               ("third_moment_sqrt_n", t1),
               ("smoothed_comparison_sqrt_n",
                4.0 * SQRT2 * ledger.c_b4 / lam0
                * math.sqrt(h1 * v4 + gauss4 * (v4_small + 0.5))
                / math.sqrt(n)),
               ("expansion_n1", 2.0 * (h1 * v4 + gauss4 * v4_small)
                / (SQRT6 * lam0 ** 2 * n))],
        inputs={"d": ms.d, "n": n, "lambda0_sq": lam0, **inputs})


def bound_ball_normal(ms: MomentSummary, beta: float = DEFAULT_BETA,
                      ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Distance to 𝒩(0, Σ) over Euclidean balls, fourth-moment version."""
    ms.require("x_w4_mean", "sigma_cond")
    surr = _surrogates(ms.x_w3_frob, ms.x_w3_op, ms.x_w3_max, ms.x_w3_nonzero,
                       ms.d)
    r3, chosen = _pick(surr)
    dd = ms.d * ms.d + 2.0 * ms.d  # 𝔼‖Z‖⁴ of Z ~ 𝒩(0, I_d)
    return _normal_breakdown(
        ms, "ball_normal", beta, r3, scale=2.0 * ledger.c_b4 * ms.sigma_cond,
        weight=0.25 / beta ** 4, v4=ms.x_w4_mean, free=dd, gauss4=dd,
        inputs={"c_b4": ledger.c_b4, "r3_surrogates": surr, "r3_chosen": chosen,
                "x_w4_mean": ms.x_w4_mean, "sigma_cond": ms.sigma_cond})


def bound_ball_general(ms: MomentSummary, beta: float = DEFAULT_BETA,
                       ledger: ConstantsLedger = ConstantsLedger(),
                       same_cov: bool = True) -> BoundBreakdown:
    """Distance between two i.i.d. sums over Euclidean balls.

    ``same_cov=True`` assumes Var X = Var T = Σ and compares whitened third
    moments; otherwise the covariance gap enters as an n-free term and all
    moments are unwhitened, normalized by λ₀² = min eigenvalue of the two
    covariances.
    """
    d, n = ms.d, ms.n
    dd = d * d + 2.0 * d
    if same_cov:
        ms.require("x_w4_mean", "t_w4_mean", "sigma_cond")
        surr = _surrogates(ms.dw3_frob, ms.dw3_op, ms.dw3_max, ms.dw3_nonzero, d)
        r3, chosen = _pick(surr)
        vbar4 = ms.x_w4_mean + ms.t_w4_mean
        return _normal_breakdown(
            ms, "ball_two_sample_same_cov", beta, r3,
            scale=SQRT8 * ledger.c_b4 * ms.sigma_cond, weight=0.25 / beta ** 4,
            v4=vbar4, free=2.0 * dd, gauss4=0.0,
            inputs={"c_b4": ledger.c_b4, "r3_surrogates": surr,
                    "r3_chosen": chosen, "vbar4": vbar4,
                    "sigma_cond": ms.sigma_cond})

    ms.require("cov_gap_frob", "x_c4_mean", "t_c4_mean", "sigma_op", "sigma_t_op")
    lam0 = _lambda0_sq(ms)
    v4 = ms.x_c4_mean + ms.t_c4_mean
    v4_small = ms.sigma_op ** 2 + ms.sigma_t_op ** 2
    scale = lam0 ** -1.5  # λ₀⁻³ enters the unwhitened surrogates
    surr = _surrogates(ms.d3_frob, ms.d3_op, ms.d3_max, ms.d3_nonzero, d,
                       scale=scale)
    r3, chosen = _pick(surr)
    t1 = r3 / (SQRT6 * beta ** 3 * math.sqrt(n))
    return _gap_breakdown(
        ms, "ball_two_sample_diff_cov", beta, ledger, lam0,
        gap=ms.cov_gap_frob, t1=t1, v4=v4, v4_small=v4_small, gauss4=dd,
        inputs={"c_b4": ledger.c_b4, "r3_surrogates": surr, "r3_chosen": chosen,
                "v4": v4, "v4_small": v4_small})


def _lambda0_sq(ms: MomentSummary) -> float:
    if ms.lambda0_sq is not None:
        lam0 = ms.lambda0_sq
    else:
        ms.require("sigma_min_eig", "sigma_t_min_eig")
        lam0 = min(ms.sigma_min_eig, ms.sigma_t_min_eig)
    if lam0 <= 0.0:
        raise InfeasibleError("lambda0_sq must be positive")
    return lam0


# ---------------------------------------------------------------------------
# half-space bounds
# ---------------------------------------------------------------------------


def bound_halfspace_normal(ms: MomentSummary, beta: float = DEFAULT_BETA,
                           ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Distance to 𝒩(0, Σ) over half-spaces; dimension-free in d."""
    ms.require("x_w3_op", "x_w4_op")
    return _normal_breakdown(
        ms, "halfspace_normal", beta, ms.x_w3_op, scale=ledger.c_b4,
        weight=beta ** -4, v4=ms.x_w4_op, free=h_funcs(beta)[2], gauss4=3.0,
        inputs={"c_h4": ledger.c_b4, "x_w3_op": ms.x_w3_op,
                "x_w4_op": ms.x_w4_op})


def bound_halfspace_general(ms: MomentSummary, beta: float = DEFAULT_BETA,
                            ledger: ConstantsLedger = ConstantsLedger(),
                            same_cov: bool = True) -> BoundBreakdown:
    """Distance between two i.i.d. sums over half-spaces."""
    if same_cov:
        ms.require("dw3_op", "x_w4_op", "t_w4_op")
        vbar = ms.x_w4_op + ms.t_w4_op
        return _normal_breakdown(
            ms, "halfspace_two_sample_same_cov", beta, ms.dw3_op,
            scale=ledger.c_b4, weight=beta ** -4, v4=vbar,
            free=2.0 * h_funcs(beta)[2], gauss4=0.0,
            inputs={"c_h4": ledger.c_b4, "vbar_t4": vbar})

    ms.require("cov_gap_op", "d3_op", "x_raw4_op", "t_raw4_op",
               "sigma_op", "sigma_t_op")
    lam0 = _lambda0_sq(ms)
    vt4 = ms.x_raw4_op + ms.t_raw4_op
    v4_small = ms.sigma_op ** 2 + ms.sigma_t_op ** 2
    t1 = ms.d3_op / (SQRT6 * beta ** 3 * lam0 ** 1.5 * math.sqrt(ms.n))
    return _gap_breakdown(
        ms, "halfspace_two_sample_diff_cov", beta, ledger, lam0,
        gap=ms.cov_gap_op, t1=t1, v4=vt4, v4_small=v4_small, gauss4=3.0,
        inputs={"c_h4": ledger.c_b4, "v_t4": vt4, "v4_small": v4_small})


# ---------------------------------------------------------------------------
# symmetric-input bound (sixth moments, n^{-2} tail term)
# ---------------------------------------------------------------------------


def bound_ball_symmetric(ms: MomentSummary,
                         ledger: ConstantsLedger = ConstantsLedger(),
                         variant: str = "sixth_moment") -> BoundBreakdown:
    """Ball distance to 𝒩(0, Σ) for symmetric laws with five matched moments.

    ``variant="sixth_moment"`` is the tensor-norm form; ``"max_norm"``
    replaces norms by coordinatewise sixth moments times powers of d.
    The free parameter here is λ_z², the smallest eigenvalue of the normal
    component of the five-moment-matching law — there is no β.
    """
    ms.require("lambda_z_sq")
    if ms.lambda_z_sq <= 0:
        raise InfeasibleError("lambda_z_sq must be positive")
    lz2 = ms.lambda_z_sq
    lz_m4 = lz2 ** -2
    lz_m6 = lz2 ** -3
    d, n = ms.d, ms.n
    if variant == "sixth_moment":
        ms.require("x_m6", "l_m6", "d4_frob", "u6_mean", "z6_mean")
        t1 = ledger.c_b6 * (lz_m6 * (ms.x_m6 + ms.l_m6)) ** 0.25 / math.sqrt(n)
        t2 = lz_m4 * ms.d4_frob / (math.sqrt(24.0) * n)
        t3 = lz_m6 * (ms.u6_mean + ms.z6_mean) / (math.sqrt(720.0) * n * n)
        inputs = {"d": d, "n": n, "c_b6": ledger.c_b6, "lambda_z_sq": lz2,
                  "sixth_moments": ms.x_m6 + ms.l_m6}
    elif variant == "max_norm":
        ms.require("m6_sym", "d4_max")
        t1 = ledger.c_b6 * (lz_m6 * ms.m6_sym) ** 0.25 * d ** 0.75 / math.sqrt(n)
        t2 = lz_m4 * ms.d4_max * d / (SQRT8 * n)
        t3 = lz_m6 * ms.m6_sym * d ** 3 / (math.sqrt(720.0) * n * n)
        inputs = {"d": d, "n": n, "c_b6": ledger.c_b6, "lambda_z_sq": lz2,
                  "m6_sym": ms.m6_sym}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BoundBreakdown(
        theorem=f"ball_symmetric_{variant}", beta=None,
        terms=[("sixth_moment_sqrt_n", t1),
               ("fourth_cumulant_n1", t2),
               ("sixth_moment_n2", t3)],
        inputs=inputs)


# ---------------------------------------------------------------------------
# bootstrap accuracy
# ---------------------------------------------------------------------------


def concentration_consts(d: int, n: int):
    """(t*, C₁(t*), C₂(t*)) at t* = log n + log(2dn + d² + 3d)."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    t = math.log(n) + math.log(2.0 * d * n + d * d + 3.0 * d)
    c1 = 2.0 * (4.0 * math.sqrt(2.0 * t) + 3.0 * t / math.sqrt(n))
    c2 = 4.0 * SQRT2 * (SQRT8 * t + t ** 1.5 / math.sqrt(n))
    return t, c1, c2


def bootstrap_delta(ms: MomentSummary, beta: float = DEFAULT_BETA,
                    ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Certified accuracy of the empirical-bootstrap approximation of the
    centered sum, over Euclidean balls, holding with probability ≥ 1 − 1/n.

    Requires the user-supplied sub-Gaussian variance factor σ² of the
    coordinates.  Feasibility demands σ²(d/√n)·C₁(t*) < λ_min(Σ); otherwise
    an :class:`InfeasibleError` names the violated condition.  When the
    summary records its largest coordinate variance, ``inputs`` flags a σ²
    below it as ``sigma2_below_variance`` (such a σ² cannot be a
    sub-Gaussian factor, so the certificate does not hold as stated).
    """
    ms.require("sigma2", "sigma_min_eig", "sigma_frob", "sigma_op",
               "x_c4_mean", "x_c3_frob")
    d, n = ms.d, ms.n
    sigma2 = ms.sigma2
    t_star, c1s, c2s = concentration_consts(d, n)
    gap = sigma2 * (d / math.sqrt(n)) * c1s
    if gap >= ms.sigma_min_eig:
        raise InfeasibleError(
            f"feasibility condition sigma2*(d/sqrt(n))*C1(t*) < "
            f"lambda_min(Sigma) fails: {gap:.6g} >= {ms.sigma_min_eig:.6g}")
    lam0 = ms.sigma_min_eig - gap
    third = (4.0 * math.sqrt(sigma2) * math.sqrt(2.0 * d * t_star) / n
             * (ms.sigma_frob + sigma2 * (d / n) * t_star)
             + sigma2 * d ** 1.5 / n * c2s * (1.0 + 3.0 / math.sqrt(n))
             + ms.x_c3_frob / math.sqrt(n))
    t1 = third / (SQRT6 * beta ** 3 * lam0 ** 1.5)
    fourth = ms.x_c4_mean + 8.0 * (1.0 + n ** -2) * (2.0 * sigma2 * (d / n) * t_star) ** 2
    small = 3.0 * ms.sigma_op ** 2 + 2.0 * gap ** 2
    inputs = {"c_b4": ledger.c_b4, "sigma2": sigma2, "t_star": t_star,
              "c1_star": c1s, "c2_star": c2s, "moment_gap": gap}
    if ms.coord_var_max is not None:
        inputs["sigma2_below_variance"] = sigma2 < ms.coord_var_max
    return _gap_breakdown(ms, "bootstrap_ball", beta, ledger, lam0, gap=gap,
                          t1=t1, v4=fourth, v4_small=small,
                          gauss4=d * d + 2.0 * d, inputs=inputs)


def delta_W(ms: MomentSummary, beta: float = DEFAULT_BETA,
            ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Coverage-error certificate for bootstrap elliptical confidence sets.

    ``ms`` must be built from the W^{1/2}-transformed observations (see
    :func:`bootstrap_summary` with a ``weight`` matrix).  Compared with the
    plain bootstrap bound there is one extra n^{-1} term for the probability
    of the event on which the bound holds.
    """
    base = bootstrap_delta(ms, beta, ledger)
    return replace(base, theorem="elliptical_coverage", terms=base.terms
                   + [("event_probability_n1", 1.0 / ms.n)])


def delta_R(ms: MomentSummary, beta: float = DEFAULT_BETA,
            ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Level-error certificate for the bootstrap score test under H₀.

    ``ms`` must carry per-observation score moments with the scaled
    information matrix I(θ')/n in the covariance slots (see
    :func:`score_summary`) and σ² = the scores' sub-Gaussian factor.
    """
    return replace(bootstrap_delta(ms, beta, ledger),
                   theorem="bootstrap_score_level")


def score2_bound(ms: MomentSummary, beta: float = DEFAULT_BETA,
                 ledger: ConstantsLedger = ConstantsLedger()) -> BoundBreakdown:
    """Level error of the χ²-calibrated score test with a correctly
    specified model, uniform over nominal levels.

    The ball bound for the standardized per-observation scores
    X̃_i = √n·I(θ')^{-1/2}·(i-th score), relabelled; the covariance
    conditioning ‖Σ̃⁻¹‖‖Σ̃‖ equals the condition number of I(θ').  The
    summary must set the Frobenius envelope of the third moment, which
    :class:`MomentSummary` keeps the least one up to rounding.
    """
    ms.require("x_w3_frob", "x_w4_mean", "sigma_cond")
    return replace(bound_ball_normal(ms, beta, ledger),
                   theorem="score_chi2_level")


# ---------------------------------------------------------------------------
# theorem table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    """A named certificate.  ``evaluate(ms, beta, ledger)`` looks its bound
    function up when called.  ``regime`` says which summary of data it reads:
    "sample" (:func:`summarize_sample`), "same-cov" or "diff-cov"
    (:func:`summarize_pair` with ``same_cov`` true or false), "bootstrap"
    (:func:`bootstrap_summary`) or "score" (:func:`score_summary`); None when
    only a supplied summary can serve.  ``op_norms`` says whether it reads
    tensor operator norms (the half-space theorems do, and only they).  The
    symmetric theorems have no β and ignore the one they are passed."""

    evaluate: Callable[..., BoundBreakdown]
    regime: Optional[str]
    op_norms: bool = False


#: certificates by name, in the order the command line lists them
THEOREM_TABLE = {
    "ball-normal": Theorem(lambda m, b, c: bound_ball_normal(m, b, c), "sample"),
    "ball-same-cov": Theorem(
        lambda m, b, c: bound_ball_general(m, b, c, same_cov=True), "same-cov"),
    "ball-diff-cov": Theorem(
        lambda m, b, c: bound_ball_general(m, b, c, same_cov=False), "diff-cov"),
    "halfspace-normal": Theorem(
        lambda m, b, c: bound_halfspace_normal(m, b, c), "sample",
        op_norms=True),
    "halfspace-same-cov": Theorem(
        lambda m, b, c: bound_halfspace_general(m, b, c, same_cov=True),
        "same-cov", op_norms=True),
    "halfspace-diff-cov": Theorem(
        lambda m, b, c: bound_halfspace_general(m, b, c, same_cov=False),
        "diff-cov", op_norms=True),
    "symmetric": Theorem(
        lambda m, b, c: bound_ball_symmetric(m, c, variant="sixth_moment"),
        None),
    "symmetric-max": Theorem(
        lambda m, b, c: bound_ball_symmetric(m, c, variant="max_norm"),
        None),
    "bootstrap-ball": Theorem(lambda m, b, c: bootstrap_delta(m, b, c), "bootstrap"),
    "elliptical": Theorem(lambda m, b, c: delta_W(m, b, c), "bootstrap"),
    "score-bootstrap": Theorem(lambda m, b, c: delta_R(m, b, c), "score"),
    "score-chi2": Theorem(lambda m, b, c: score2_bound(m, b, c), "sample"),
}


# ---------------------------------------------------------------------------
# β optimization
# ---------------------------------------------------------------------------

# optimize_beta's search interval, golden-section tolerance and number of
# independently searched sub-intervals
BETA_LOWER = 0.05
BETA_UPPER = 0.995
BETA_TOL = 1e-4
BETA_BRACKETS = 5


def optimize_beta(evaluator: Callable[[float], BoundBreakdown]):
    """Minimize a bound's total over β by bracketed golden-section search.

    The search domain [BETA_LOWER, BETA_UPPER] is partitioned into
    ``BETA_BRACKETS`` sub-intervals, each searched independently (the totals
    need not be unimodal on the whole interval).  β = 0.829 is always
    evaluated as a fallback candidate, so the returned total never exceeds
    the default-β evaluation.
    An :class:`InfeasibleError` propagates at once: feasibility never
    depends on β.  Returns ``(beta_star, breakdown_at_beta_star)``.
    """
    last_error = None

    def f(beta: float) -> float:
        nonlocal last_error
        try:
            v = evaluator(beta).total
        except InfeasibleError:
            raise  # no β can repair a failed feasibility condition
        except (ValueError, ArithmeticError) as exc:
            last_error = exc
            return math.inf
        return v if math.isfinite(v) else math.inf

    candidates = [DEFAULT_BETA]
    edges = np.linspace(BETA_LOWER, BETA_UPPER, BETA_BRACKETS + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        candidates.append(_golden_section(f, float(a), float(b), BETA_TOL))
    finite = [(f(beta), beta) for beta in candidates]
    finite = [(v, beta) for v, beta in finite if math.isfinite(v)]
    if not finite:
        detail = f"; last error: {last_error}" if last_error else ""
        raise ValueError("bound evaluator returned no finite value on the "
                         "search interval" + detail) from last_error
    _, beta_star = min(finite)
    return beta_star, evaluator(beta_star)


# ---------------------------------------------------------------------------
# summary builders
# ---------------------------------------------------------------------------


def _sigma_stats(spd: SpdMatrix) -> dict:
    return {
        "sigma_op": spd.operator_norm,
        "sigma_frob": spd.frobenius_norm,
        "sigma_min_eig": spd.min_eigenvalue,
        "sigma_cond": spd.operator_norm * (1.0 / spd.min_eigenvalue),
    }


def _matching(name: str, matrix, d: int) -> SpdMatrix:
    """The supplied matrix ``name`` as an SpdMatrix, refused unless it is
    d×d for data of dimension d."""
    spd = SpdMatrix.coerce(matrix)
    if spd.dim != d:
        raise ValueError(f"{name} is {spd.dim}x{spd.dim}, but the data have "
                         f"dimension {d}")
    return spd


def summarize_gaussian(sigma, n: int) -> MomentSummary:
    """Exact moment summary of 𝒩(0, Σ): zero whitened third moment,
    𝔼‖Σ^{-1/2}Z‖⁴ = d² + 2d, ‖𝔼(Σ^{-1/2}Z)^⊗4‖ = 3."""
    spd = SpdMatrix.coerce(sigma)
    d = spd.dim
    tr = spd.trace
    tr2 = float(np.sum(spd.eigenvalues ** 2))
    return MomentSummary(
        d=d, n=n,
        x_w3_frob=0.0, x_w3_op=0.0, x_w3_max=0.0, x_w3_nonzero=0,
        x_w4_mean=float(d * d + 2 * d), x_w4_op=3.0,
        x_c3_frob=0.0, x_c4_mean=tr * tr + 2.0 * tr2,
        **_sigma_stats(spd))


def _centered(x: Sample) -> Sample:
    return Sample(x.data - x.data.mean(axis=0))


def _fourth_mean(rows: Sample) -> float:
    """𝔼‖X‖⁴ of the rows X."""
    return float((np.sum(rows.data ** 2, axis=1) ** 2).mean())


def _third_norms(t: MomentTensor, wanted: bool):
    """‖A‖_F of a third-moment tensor A, and ‖A‖ when wanted (else None)."""
    return frobenius_norm(t), operator_norm(t).value if wanted else None


def _fourth_op(rows: Sample, wanted: bool) -> Optional[float]:
    return operator_norm(empirical_moment(rows, 4)).value if wanted else None


def summarize_sample(x: Sample, sigma=None,
                     with_op_norms: bool = True) -> MomentSummary:
    """Empirical one-sample summary: Σ's scalars and the whitened moments
    that the one-sample theorems read.

    ``sigma`` supplies a known covariance; otherwise the biased sample
    covariance is used.  For another n, use ``dataclasses.replace(ms, n=...)``.
    ``with_op_norms`` builds the operator norms ``x_w3_op`` and ``x_w4_op``,
    which only the half-space theorems read; the ball theorems take the
    Frobenius norm of the third moment.
    """
    spd = (SpdMatrix(x.covariance()) if sigma is None
           else _matching("sigma", sigma, x.dim))
    w = whiten(_centered(x), spd)
    # the order-4 form is the largest: a d above its cap is refused before
    # any other moment work
    w4_op = _fourth_op(w, with_op_norms)
    f, o = _third_norms(empirical_moment(w, 3), with_op_norms)
    return MomentSummary(
        d=x.dim, n=x.n, x_w3_frob=f, x_w3_op=o, x_w4_mean=_fourth_mean(w),
        x_w4_op=w4_op, **_sigma_stats(spd))


def summarize_pair(x: Sample, t: Sample, sigma=None, sigma_t=None,
                   same_cov: bool = True,
                   with_op_norms: bool = True) -> MomentSummary:
    """Two-sample summary for the comparison bounds.

    In the same-covariance regime both samples are whitened by the X-side
    covariance (they share Σ by assumption).  Otherwise their unwhitened
    central moments, both covariances and the gaps between them are used.
    ``with_op_norms`` builds the operator norms of the third-moment
    difference and of both fourth moments, as in :func:`summarize_sample`.
    """
    if x.dim != t.dim:
        raise ValueError("samples have different dimensions")
    cx, ct = _centered(x), _centered(t)
    d, n = x.dim, x.n
    spd_x = (SpdMatrix(x.covariance()) if sigma is None
             else _matching("sigma", sigma, d))
    if same_cov:
        cx, ct = whiten(cx, spd_x), whiten(ct, spd_x)
    else:
        spd_t = (SpdMatrix(t.covariance()) if sigma_t is None
                 else _matching("sigma_t", sigma_t, d))
    x4_op, t4_op = (_fourth_op(r, with_op_norms) for r in (cx, ct))
    f, o = _third_norms(empirical_moment(cx, 3) - empirical_moment(ct, 3),
                        with_op_norms)
    x4_mean, t4_mean = _fourth_mean(cx), _fourth_mean(ct)
    if same_cov:
        return MomentSummary(
            d=d, n=n, dw3_frob=f, dw3_op=o, x_w4_mean=x4_mean,
            t_w4_mean=t4_mean, x_w4_op=x4_op, t_w4_op=t4_op,
            **_sigma_stats(spd_x))
    gap = spd_x.matrix - spd_t.matrix
    return MomentSummary(
        d=d, n=n, sigma_t_op=spd_t.operator_norm,
        sigma_t_min_eig=spd_t.min_eigenvalue,
        cov_gap_frob=float(np.linalg.norm(gap)),
        cov_gap_op=float(np.abs(np.linalg.eigvalsh(0.5 * (gap + gap.T))).max()),
        d3_frob=f, d3_op=o, x_c4_mean=x4_mean, t_c4_mean=t4_mean,
        x_raw4_op=x4_op, t_raw4_op=t4_op,
        lambda0_sq=min(spd_x.min_eigenvalue, spd_t.min_eigenvalue),
        **_sigma_stats(spd_x))


def _sub_gaussian_summary(rows: Sample, spd: SpdMatrix, cov: np.ndarray,
                          sigma2: float) -> MomentSummary:
    """The bootstrap-type summary of ``rows``: Σ's scalars, ‖𝔼X^⊗3‖_F,
    𝔼‖X‖⁴, σ² and the largest coordinate variance, read off the rows'
    (biased) covariance ``cov``."""
    return MomentSummary(
        d=rows.dim, n=rows.n,
        x_c3_frob=frobenius_norm(empirical_moment(rows, 3)),
        x_c4_mean=_fourth_mean(rows),
        sigma2=sigma2, coord_var_max=float(np.diag(cov).max()),
        **_sigma_stats(spd))


def bootstrap_summary(x: Sample, sigma2: float, sigma=None,
                      weight=None) -> MomentSummary:
    """Moment summary for the bootstrap certificates.

    ``sigma2`` is the user-supplied sub-Gaussian variance factor of the
    (possibly ``weight``^{1/2}-transformed) coordinates.  ``sigma`` supplies
    Var X; it defaults to the biased sample covariance.  ``weight`` is the
    p.d. matrix W of an elliptical confidence set; when given, observations
    are transformed by W^{1/2} before summarizing, and a supplied Σ becomes
    W^{1/2}ΣW^{1/2}, the covariance of the transformed rows.  For a
    certificate at another n, use ``dataclasses.replace(ms, n=...)``.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if sigma is not None:
        sigma = _matching("sigma", sigma, x.dim)
    if weight is not None:
        w_half = _matching("weight", weight, x.dim).sqrt()
        x = Sample(x.data @ w_half)
        if sigma is not None:
            sigma = w_half @ sigma.matrix @ w_half
    cov = x.covariance()
    spd = SpdMatrix.coerce(cov if sigma is None else sigma)
    return _sub_gaussian_summary(_centered(x), spd, cov, sigma2)


def score_summary(scores: Sample, sigma2_s: float, info=None) -> MomentSummary:
    """Summary for the bootstrap score test certificate.

    ``scores`` holds per-observation score rows at the tested parameter;
    under H₀ they have mean zero, so they are summarized uncentered.
    ``info`` is the Fisher information of the full sample (defaults to
    n·(sample covariance of the scores), the correctly-specified value); the
    covariance slots carry info/n.
    """
    if sigma2_s <= 0:
        raise ValueError("sigma2_s must be positive")
    cov = scores.covariance()
    spd = (SpdMatrix(cov) if info is None else SpdMatrix(
        _matching("info", info, scores.dim).matrix / scores.n))
    return _sub_gaussian_summary(scores, spd, cov, sigma2_s)
