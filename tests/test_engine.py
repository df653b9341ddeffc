"""Bound engine: h-functions, all bound formulas, β search, constants."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from cltcert.engine import (
    BoundBreakdown,
    ConstantsLedger,
    InfeasibleError,
    MomentSummary,
    bootstrap_delta,
    bootstrap_summary,
    bound_ball_general,
    bound_ball_normal,
    bound_ball_symmetric,
    bound_halfspace_general,
    bound_halfspace_normal,
    concentration_consts,
    delta_R,
    delta_W,
    h_funcs,
    optimize_beta,
    score2_bound,
    score_summary,
    summarize_gaussian,
    summarize_pair,
    summarize_sample,
    verify_constants_constraint,
)
from cltcert.samplers import sample_gaussian
from cltcert.tensors import (
    Sample,
    SpdMatrix,
    empirical_moment,
    operator_norm,
    whiten,
)
from dense import dense_moment, sym2_form, symmetrize
from test_golden import SUMMARY, SUPPLIED_MATRICES

SQRT6 = math.sqrt(6.0)

# frozen h-function values at the reference β = 0.829
H1_REF = 6.976851340779887
H2_REF = 0.20711021024574175
H3_REF = 5.730561767996964


# ---------------------------------------------------------------------------
# constants ledger + optimization constraint
# ---------------------------------------------------------------------------

def test_ledger_defaults_and_overrides():
    led = ConstantsLedger()
    assert led.c_b4 == 9.5 and led.c_b6 == 2.9
    bumped = led.with_overrides(c_phi4=1.2)
    assert bumped.c_b4 == pytest.approx(11.4)
    assert bumped.c_b6 == 2.9
    with pytest.raises(ValueError):
        ConstantsLedger(c_ell2=0.5)
    with pytest.raises(ValueError):
        ConstantsLedger(m4=5.0)  # would push c_b4 below its floor
    # no bound reads m3, so it is not a ledger constant
    with pytest.raises(ValueError, match="unknown ledger constants: m3"):
        led.with_overrides(m3=54.1)
    for value in ("x", None, True):
        with pytest.raises(ValueError, match="c_phi4 must be a number"):
            led.with_overrides(c_phi4=value)


def test_constants_constraint_admissible_triples():
    cases = {
        (3, 54.1, 27.46, 14.0): 0.9998568,
        (4, 9.5, 6.33, 8.5): 0.9568009,
        (6, 2.9, 2.07, 8.5): 0.9329811,
    }
    for (k, m, a, b), expected in cases.items():
        lhs, ok = verify_constants_constraint(k, m, a, b)
        assert ok, (k, lhs)
        assert lhs == pytest.approx(expected, abs=5e-7)


def test_constants_constraint_rejects_small_M():
    lhs, ok = verify_constants_constraint(4, 1.0, 6.33, 8.5)
    assert not ok and lhs > 1.0
    with pytest.raises(ValueError):
        verify_constants_constraint(5, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        verify_constants_constraint(4, -1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# h-functions and the published coefficient table
# ---------------------------------------------------------------------------

def test_h_funcs_frozen_values():
    h1, h2, h3 = h_funcs(0.829)
    assert h1 == pytest.approx(H1_REF, rel=1e-12)
    assert h2 == pytest.approx(H2_REF, rel=1e-12)
    assert h3 == pytest.approx(H3_REF, rel=1e-12)
    # β² = 1/2 gives h2 = (1/2)²/(1/4) = 1
    assert h_funcs(math.sqrt(0.5))[1] == pytest.approx(1.0, rel=1e-12)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            h_funcs(bad)


def test_published_coefficients_at_reference_beta():
    """Six of the seven display coefficients match to 0.5%; the seventh
    (0.043) was printed rounded *up* at 3 decimals, so we check ceiling
    reproduction instead of a symmetric tolerance."""
    h1, h2, h3 = h_funcs(0.829)
    beta = 0.829
    checks = {
        0.717: 1.0 / (SQRT6 * beta ** 3),
        7.51: h1 + 0.25 / beta ** 4,
        1.425: h1 / (2 * SQRT6),
        9.10: h1 + beta ** -4,
        5.731: h3,
        0.127: 3 * h2 / (2 * SQRT6),
    }
    for shown, computed in checks.items():
        assert abs(computed - shown) / shown < 0.005, (shown, computed)
    val = h2 / (2 * SQRT6)
    assert 0.0 <= 0.043 - val < 1e-3  # 0.043 = ceil(val · 10³)/10³


def test_h1_dominates_h2():
    for beta in np.linspace(0.05, 0.99, 50):
        h1, h2, _ = h_funcs(float(beta))
        assert h1 >= h2


# ---------------------------------------------------------------------------
# breakdown container
# ---------------------------------------------------------------------------

def test_breakdown_total_and_json():
    bb = BoundBreakdown("demo", 0.8, [("a", 1.0), ("b", 0.25)], {"d": 2})
    assert bb.total == pytest.approx(1.25, rel=1e-15)
    payload = json.loads(bb.to_json())
    assert payload["theorem"] == "demo"
    assert payload["total"] == pytest.approx(1.25)
    assert payload["terms"] == [{"name": "a", "value": 1.0},
                                {"name": "b", "value": 0.25}]
    with pytest.raises(ValueError):
        BoundBreakdown("demo", 0.8, [("a", -0.1)])
    with pytest.raises(ValueError):
        BoundBreakdown("demo", 0.8, [("a", math.inf)])


def test_moment_summary_validation():
    with pytest.raises(ValueError):
        MomentSummary(d=0, n=10)
    with pytest.raises(ValueError):
        MomentSummary(d=2, n=10, x_w4_mean=-1.0)
    with pytest.raises(ValueError):
        MomentSummary(d=2, n=10, x_w4_op=0.5)  # whitened 4th op norm is ≥ 1
    for value in (math.nan, math.inf, -math.inf):
        for name in ("x_w4_mean", "x_w4_op", "sigma2", "x_w3_nonzero"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                MomentSummary(d=2, n=10, **{name: value})
    ms = MomentSummary(d=2, n=10, x_w4_mean=5.0)
    with pytest.raises(ValueError, match="sigma_cond"):
        ms.require("x_w4_mean", "sigma_cond")


# Each case maps a factor e onto summary fields that meet one moment
# inequality for e = 1 + 5e-10 (inside the rounding slack) and break it for
# e = 1 + 2e-9, where the message names the field and the inequality.  At
# d = 4, sqrt(d) = 2 and d^2 = 16.  Beside the covariance scalars, the
# table holds the whitened fourth moments: E||W||^4 sums E W_i^2 W_j^2 <=
# ||E W^(x)4|| over the d^2 pairs (i, j); and the third-moment envelopes:
# ||A||_F <= d*||A|| and ||A||_F <= max|a| * sqrt(nonzero) for an order-3 A.
@pytest.mark.parametrize("scalars, relation", [
    (lambda e: {"sigma_op": 2.0, "sigma_min_eig": 2.0 * e},
     "sigma_min_eig <= sigma_op = 2.0"),
    (lambda e: {"sigma_frob": 3.0, "sigma_op": 3.0 * e},
     "sigma_op <= sigma_frob = 3.0"),
    (lambda e: {"sigma_op": 1.5, "sigma_frob": 3.0 * e},
     "sigma_frob <= sqrt(d)*sigma_op = sqrt(d)*1.5"),
    (lambda e: {"sigma_t_op": 0.5, "sigma_t_min_eig": 0.5 * e},
     "sigma_t_min_eig <= sigma_t_op = 0.5"),
    (lambda e: {"cov_gap_frob": 0.25, "cov_gap_op": 0.25 * e},
     "cov_gap_op <= cov_gap_frob = 0.25"),
    (lambda e: {"cov_gap_op": 0.125, "cov_gap_frob": 0.25 * e},
     "cov_gap_frob <= sqrt(d)*cov_gap_op = sqrt(d)*0.125"),
    (lambda e: {"sigma_cond": 1.0 / e}, "sigma_cond >= 1"),
    (lambda e: {"sigma_op": 3.0, "sigma_min_eig": 0.5, "sigma_cond": 6.0 * e},
     "sigma_cond = sigma_op / sigma_min_eig = 3.0 / 0.5"),
    (lambda e: {"sigma_op": 3.0, "sigma_min_eig": 0.5, "sigma_cond": 6.0 / e},
     "sigma_cond = sigma_op / sigma_min_eig = 3.0 / 0.5"),
    (lambda e: {"sigma_min_eig": 0.75, "sigma_t_min_eig": 1.5,
                "lambda0_sq": 0.75 * e},
     "lambda0_sq <= sigma_min_eig = 0.75"),
    (lambda e: {"sigma_min_eig": 1.5, "sigma_t_min_eig": 0.75,
                "lambda0_sq": 0.75 * e},
     "lambda0_sq <= sigma_t_min_eig = 0.75"),
    (lambda e: {"x_w4_op": 1.5, "x_w4_mean": 24.0 * e},
     "x_w4_mean <= d^2*x_w4_op = d^2*1.5"),
    (lambda e: {"t_w4_op": 1.25, "t_w4_mean": 20.0 * e},
     "t_w4_mean <= d^2*t_w4_op = d^2*1.25"),
    *((lambda e, p=p: {p + "op": 0.5, p + "frob": 2.0 * e},
       f"{p}frob <= d*{p}op = d*0.5") for p in ("x_w3_", "dw3_", "d3_")),
    *((lambda e, p=p: {p + "max": 0.25, p + "nonzero": 9,
                       p + "frob": 0.75 * e},
       f"{p}frob <= sqrt({p}nonzero)*{p}max = sqrt({p}nonzero)*0.25")
      for p in ("x_w3_", "dw3_", "d3_")),
])
def test_moment_summary_refuses_covariance_scalars_no_covariance_has(
        scalars, relation):
    MomentSummary(d=4, n=10, **scalars(1.0 + 5e-10))
    with pytest.raises(ValueError) as err:
        MomentSummary(d=4, n=10, **scalars(1.0 + 2e-9))
    name = relation.split()[0]
    message = str(err.value)
    assert message.startswith(f"{name} = ")
    assert message.endswith(f" violates {relation}")


# ---------------------------------------------------------------------------
# ball bound vs 𝒩(0, Σ)
# ---------------------------------------------------------------------------

def _zeroed_ball_summary(d, n):
    return MomentSummary(d=d, n=n, sigma_cond=1.0, x_w4_mean=0.0,
                         x_w3_frob=0.0, x_w3_op=0.0, x_w3_max=0.0,
                         x_w3_nonzero=0)


def test_ball_normal_symbolic_d_terms_only():
    # with all moment inputs zeroed: 19·√(d²+2d)/√n + h₂/(2√6)·(d²+2d)/n
    bb = bound_ball_normal(_zeroed_ball_summary(2, 100), beta=0.829)
    assert bb.term("third_moment_sqrt_n") == 0.0
    assert bb.term("smoothed_comparison_sqrt_n") == pytest.approx(
        19.0 * math.sqrt(8.0) / 10.0, rel=1e-12)
    assert bb.term("expansion_n1") == pytest.approx(
        H2_REF * 8.0 / (2 * SQRT6 * 100.0), rel=1e-12)
    assert bb.total == pytest.approx(sum(v for _, v in bb.terms), rel=1e-12)


def test_ball_normal_n_scaling():
    def ms(n):
        return MomentSummary(d=3, n=n, sigma_cond=1.5, x_w4_mean=20.0,
                             x_w3_frob=2.0)
    b1, b2 = bound_ball_normal(ms(500)), bound_ball_normal(ms(1000))
    r = math.sqrt(2.0)
    assert b2.term("third_moment_sqrt_n") == pytest.approx(
        b1.term("third_moment_sqrt_n") / r, rel=1e-12)
    assert b2.term("smoothed_comparison_sqrt_n") == pytest.approx(
        b1.term("smoothed_comparison_sqrt_n") / r, rel=1e-12)
    assert b2.term("expansion_n1") == pytest.approx(
        b1.term("expansion_n1") / 2.0, rel=1e-12)
    assert b2.total < b1.total


def test_ball_normal_surrogate_choice_and_missing_fields():
    # a Frobenius norm is never above the other two envelopes, so a
    # different choice needs it left out
    ms = MomentSummary(d=2, n=100, sigma_cond=1.0, x_w4_mean=8.0,
                       x_w3_op=0.5, x_w3_max=0.3, x_w3_nonzero=4)
    bb = bound_ball_normal(ms)
    surr = bb.inputs["r3_surrogates"]
    assert "frobenius" not in surr
    assert surr["operator_dim"] == 1.0
    assert surr["max_sparse"] == pytest.approx(0.6)
    assert bb.inputs["r3_chosen"] == "max_sparse"
    with pytest.raises(ValueError, match="sigma_cond"):
        bound_ball_normal(MomentSummary(d=2, n=100, x_w4_mean=1.0,
                                        x_w3_frob=0.0))
    with pytest.raises(ValueError, match="surrogate"):
        bound_ball_normal(MomentSummary(d=2, n=100, x_w4_mean=1.0,
                                        sigma_cond=1.0))


# ---------------------------------------------------------------------------
# two-sample ball bounds
# ---------------------------------------------------------------------------

def test_ball_same_cov_identical_moments():
    ms = MomentSummary(d=3, n=400, sigma_cond=1.0,
                       x_w4_mean=15.0, t_w4_mean=15.0,
                       dw3_frob=0.0, dw3_op=0.0, dw3_max=0.0, dw3_nonzero=0)
    bb = bound_ball_general(ms, same_cov=True)
    assert bb.term("third_moment_sqrt_n") == 0.0
    assert len(bb.terms) == 3
    # √8·C_B4 coefficient of the comparison term
    h1, _, _ = h_funcs(bb.beta)
    expected = (math.sqrt(8.0) * 9.5
                * math.sqrt((h1 + 0.25 / bb.beta ** 4) * 30.0 + 2 * 9 + 4 * 3)
                / 20.0)
    assert bb.term("smoothed_comparison_sqrt_n") == pytest.approx(expected, rel=1e-12)


def test_ball_diff_cov_zeroth_term_example():
    # Σ = I₂, Σ_T = diag(1, 1.21): ‖Σ−Σ_T‖_F = 0.21, λ₀² = 1
    ms = MomentSummary(d=2, n=100, cov_gap_frob=0.21, lambda0_sq=1.0,
                       x_c4_mean=8.0, t_c4_mean=9.68,
                       sigma_op=1.0, sigma_t_op=1.21,
                       d3_frob=0.0, d3_op=0.0, d3_max=0.0, d3_nonzero=0)
    bb = bound_ball_general(ms, beta=0.829, same_cov=False)
    assert bb.term("covariance_gap") == pytest.approx(0.2162, rel=1e-3)
    assert bb.theorem == "ball_two_sample_diff_cov"


def test_ball_two_sample_terms_by_hand():
    beta = 0.7
    h1, _, _ = h_funcs(beta)
    same = MomentSummary(d=3, n=2500, sigma_cond=1.4, x_w4_mean=16.0,
                         t_w4_mean=18.0, dw3_frob=0.6)
    bb = bound_ball_general(same, beta=beta, same_cov=True)
    assert bb.term("third_moment_sqrt_n") == pytest.approx(
        0.6 / (SQRT6 * beta ** 3 * 50.0), rel=1e-12)
    assert bb.term("expansion_n1") == pytest.approx(
        h1 * 34.0 / (2 * SQRT6 * 2500), rel=1e-12)

    # λ₀² = 0.8, V₄ = 20 + 24, V₄' = 1.2² + 1.5², d² + 2d = 15
    diff = MomentSummary(d=3, n=2500, cov_gap_frob=0.3, lambda0_sq=0.8,
                         x_c4_mean=20.0, t_c4_mean=24.0, sigma_op=1.2,
                         sigma_t_op=1.5, d3_frob=0.4)
    bb = bound_ball_general(diff, beta=beta, same_cov=False)
    v4_small = 1.2 ** 2 + 1.5 ** 2
    assert bb.term("third_moment_sqrt_n") == pytest.approx(
        0.4 * 0.8 ** -1.5 / (SQRT6 * beta ** 3 * 50.0), rel=1e-12)
    assert bb.term("smoothed_comparison_sqrt_n") == pytest.approx(
        4 * math.sqrt(2.0) * 9.5 / 0.8
        * math.sqrt(h1 * 44.0 + 15.0 * (v4_small + 0.5)) / 50.0, rel=1e-12)
    assert bb.term("expansion_n1") == pytest.approx(
        2 * (h1 * 44.0 + 15.0 * v4_small) / (SQRT6 * 0.8 ** 2 * 2500),
        rel=1e-12)


def test_ball_diff_cov_lambda0_validation():
    ms = MomentSummary(d=2, n=100, cov_gap_frob=0.1, lambda0_sq=0.0,
                       x_c4_mean=1.0, t_c4_mean=1.0, sigma_op=1.0,
                       sigma_t_op=1.0, d3_frob=0.0)
    with pytest.raises(InfeasibleError):
        bound_ball_general(ms, same_cov=False)


# ---------------------------------------------------------------------------
# half-space bounds
# ---------------------------------------------------------------------------

def test_halfspace_normal_gaussian_hand_value():
    # Gaussian: whitened third moment 0, ‖𝔼(wX)^⊗4‖ = 3, n = 10⁴
    ms = MomentSummary(d=3, n=10_000, x_w3_op=0.0, x_w4_op=3.0)
    bb = bound_halfspace_normal(ms, beta=0.829)
    assert bb.term("third_moment_sqrt_n") == 0.0
    assert bb.total == pytest.approx(0.5464, rel=1e-3)
    hand = (9.5 * math.sqrt((H1_REF + 0.829 ** -4) * 3.0 + H3_REF) / 100.0
            + (H1_REF * 3.0 + 3 * H2_REF) / (2 * SQRT6 * 1e4))
    assert bb.total == pytest.approx(hand, rel=1e-12)
    assert bb.inputs["c_h4"] == 9.5  # the fourth-order constant c_b4


def test_halfspace_same_cov_and_diff_cov():
    ms = MomentSummary(d=4, n=900, dw3_op=0.5, x_w4_op=3.0, t_w4_op=4.0)
    bb = bound_halfspace_general(ms, same_cov=True)
    h1, _, h3 = h_funcs(bb.beta)
    assert bb.term("third_moment_sqrt_n") == pytest.approx(
        0.5 / (SQRT6 * bb.beta ** 3 * 30.0), rel=1e-12)
    assert bb.term("smoothed_comparison_sqrt_n") == pytest.approx(
        9.5 * math.sqrt((h1 + bb.beta ** -4) * 7.0 + 2 * h3) / 30.0, rel=1e-12)
    assert bb.term("expansion_n1") == pytest.approx(
        h1 * 7.0 / (2 * SQRT6 * 900), rel=1e-12)

    ms2 = MomentSummary(d=2, n=100, cov_gap_op=0.21, lambda0_sq=1.0,
                        d3_op=0.0, x_raw4_op=3.0, t_raw4_op=4.0,
                        sigma_op=1.0, sigma_t_op=1.21)
    bb2 = bound_halfspace_general(ms2, beta=0.829, same_cov=False)
    assert bb2.term("covariance_gap") == pytest.approx(0.2162, rel=1e-3)
    v4 = 1.0 + 1.21 ** 2
    assert bb2.term("expansion_n1") == pytest.approx(
        2.0 * (H1_REF * 7.0 + 3 * v4) / (SQRT6 * 100), rel=1e-12)

    # λ₀² = 0.6, V_T4 = 5 + 6, V₄' = 1.3² + 1.1²
    ms3 = MomentSummary(d=2, n=400, cov_gap_op=0.15, lambda0_sq=0.6,
                        d3_op=0.2, x_raw4_op=5.0, t_raw4_op=6.0,
                        sigma_op=1.3, sigma_t_op=1.1)
    bb3 = bound_halfspace_general(ms3, beta=0.829, same_cov=False)
    v4 = 1.3 ** 2 + 1.1 ** 2
    assert bb3.term("smoothed_comparison_sqrt_n") == pytest.approx(
        4 * math.sqrt(2.0) * 9.5 / 0.6
        * math.sqrt(H1_REF * 11.0 + 3 * (v4 + 0.5)) / 20.0, rel=1e-12)
    assert bb3.inputs["c_h4"] == 9.5


# ---------------------------------------------------------------------------
# symmetric-case bound
# ---------------------------------------------------------------------------

def test_symmetric_bound_gaussian_matching_law():
    # when X is Gaussian the matching law can be X itself: Δ𝔼X^⊗4 = 0
    ms = MomentSummary(d=3, n=1000, lambda_z_sq=0.5, x_m6=105.0, l_m6=105.0,
                       d4_frob=0.0, u6_mean=0.0, z6_mean=105.0)
    bb = bound_ball_symmetric(ms)
    assert bb.term("fourth_cumulant_n1") == 0.0
    assert bb.beta is None
    t1 = 2.9 * (0.5 ** -3 * 210.0) ** 0.25 / math.sqrt(1000)
    assert bb.term("sixth_moment_sqrt_n") == pytest.approx(t1, rel=1e-12)


def test_symmetric_bound_max_norm_variant():
    # unit inputs isolate the 8^{-1/2} coefficient of the n⁻¹ term
    ms = MomentSummary(d=1, n=1, lambda_z_sq=1.0, m6_sym=1.0, d4_max=1.0)
    bb = bound_ball_symmetric(ms, variant="max_norm")
    assert bb.term("fourth_cumulant_n1") == pytest.approx(8 ** -0.5, rel=1e-12)

    lz2 = 1.0 - math.sqrt(0.4)
    ms2 = MomentSummary(d=4, n=10_000, lambda_z_sq=lz2, m6_sym=15.0,
                        d4_max=0.0)
    bb2 = bound_ball_symmetric(ms2, variant="max_norm")
    hand3 = (720.0 ** -0.5) * (lz2 ** -3) * 15.0 * 64.0 / 1e8
    assert bb2.term("sixth_moment_n2") == pytest.approx(hand3, rel=1e-12)
    with pytest.raises(InfeasibleError):
        bound_ball_symmetric(MomentSummary(d=2, n=10, lambda_z_sq=0.0,
                                           m6_sym=1.0, d4_max=1.0),
                             variant="max_norm")


# ---------------------------------------------------------------------------
# concentration constants + bootstrap certificates
# ---------------------------------------------------------------------------

def test_concentration_consts():
    t, c1, c2 = concentration_consts(10, 100)
    assert t == pytest.approx(math.log(100) + math.log(2130), rel=1e-12)
    assert t == pytest.approx(12.269, abs=5e-4)
    assert c1 == pytest.approx(2.0 * (4.0 * math.sqrt(2.0 * t) + 0.3 * t),
                               rel=1e-12)
    assert c2 == pytest.approx(
        4.0 * math.sqrt(2.0) * (math.sqrt(8.0) * t + t ** 1.5 / 10.0),
        rel=1e-12)
    # t* grows with d at fixed n, and C₁ grows with t*
    c1s = [concentration_consts(d, 200)[1] for d in range(1, 30)]
    assert all(a < b for a, b in zip(c1s, c1s[1:]))


def _boot_summary(d, n, sigma2, sigma_min=1.0):
    return MomentSummary(d=d, n=n, sigma2=sigma2, sigma_min_eig=sigma_min,
                         sigma_frob=math.sqrt(d), sigma_op=1.0,
                         x_c4_mean=float(d * d + 2 * d), x_c3_frob=0.5)


def test_bootstrap_delta_infeasible_names_condition():
    # d=3, n=10⁴, σ²=1, Σ=I: σ²(d/√n)C₁(t*) ≈ 1.56 > 1 = λ_min
    ms = _boot_summary(3, 10_000, 1.0)
    t, c1s, _ = concentration_consts(3, 10_000)
    assert t == pytest.approx(20.2127, abs=5e-4)
    assert 1.0 * (3 / 100.0) * c1s == pytest.approx(1.5623, abs=5e-4)
    with pytest.raises(InfeasibleError, match="lambda_min"):
        bootstrap_delta(ms)


def test_bootstrap_delta_feasible_and_sigma_zero_limit():
    ms = _boot_summary(3, 1_000_000, 1.0)
    bb = bootstrap_delta(ms, beta=0.829)
    assert bb.inputs["lambda0_sq"] == pytest.approx(
        1.0 - bb.inputs["moment_gap"], rel=1e-12)
    assert bb.total > 0 and bb.theorem == "bootstrap_ball"

    ms0 = _boot_summary(3, 10_000, 0.0)
    bb0 = bootstrap_delta(ms0, beta=0.829)
    assert bb0.term("covariance_gap") == 0.0
    assert bb0.inputs["lambda0_sq"] == 1.0
    # only the population third moment survives in the √n term
    lam0 = 1.0
    assert bb0.term("third_moment_sqrt_n") == pytest.approx(
        0.5 / (SQRT6 * 0.829 ** 3 * lam0 ** 1.5 * 100.0), rel=1e-12)


def test_bootstrap_delta_sigma2_linearity_of_lead_term():
    b1 = bootstrap_delta(_boot_summary(2, 10_000, 0.05), beta=0.829)
    b2 = bootstrap_delta(_boot_summary(2, 10_000, 0.10), beta=0.829)
    assert b2.inputs["moment_gap"] == pytest.approx(
        2.0 * b1.inputs["moment_gap"], rel=1e-12)
    for bb in (b1, b2):
        assert bb.term("covariance_gap") == pytest.approx(
            bb.inputs["moment_gap"]
            / (math.sqrt(2.0) * 0.829 ** 2 * bb.inputs["lambda0_sq"]),
            rel=1e-12)


def test_bootstrap_delta_fourth_moment_terms_by_hand():
    d, n, sigma2 = 3, 10 ** 6, 0.8
    ms = MomentSummary(d=d, n=n, sigma2=sigma2, sigma_min_eig=0.9,
                       sigma_frob=1.7, sigma_op=1.2, x_c4_mean=18.0,
                       x_c3_frob=0.5)
    bb = bootstrap_delta(ms, beta=0.829)
    t, c1, _ = concentration_consts(d, n)
    gap = sigma2 * d / 1000.0 * c1
    lam0 = 0.9 - gap
    fourth = 18.0 + 8.0 * (1.0 + 1e-12) * (2.0 * sigma2 * d / n * t) ** 2
    small = 3.0 * 1.2 ** 2 + 2.0 * gap ** 2
    assert bb.term("smoothed_comparison_sqrt_n") == pytest.approx(
        4 * math.sqrt(2.0) * 9.5 / lam0
        * math.sqrt(H1_REF * fourth + 15.0 * (small + 0.5)) / 1000.0,
        rel=1e-12)
    assert bb.term("expansion_n1") == pytest.approx(
        2 * (H1_REF * fourth + 15.0 * small) / (SQRT6 * lam0 ** 2 * n),
        rel=1e-12)


def test_delta_W_extra_event_term_and_delta_R_label():
    ms = _boot_summary(3, 1_000_000, 0.5)
    bw = delta_W(ms)
    assert bw.theorem == "elliptical_coverage"
    assert bw.term("event_probability_n1") == pytest.approx(1e-6)
    base = bootstrap_delta(ms)
    assert bw.total == pytest.approx(base.total + 1e-6, rel=1e-12)
    br = delta_R(ms)
    assert br.theorem == "bootstrap_score_level"
    assert br.total == pytest.approx(base.total, rel=1e-12)


def test_score2_bound_uses_frobenius_surrogate():
    ms = MomentSummary(d=3, n=400, x_w3_frob=2.0, x_w3_op=1.0,
                       x_w4_mean=15.0, sigma_cond=1.0)
    bb = score2_bound(ms, beta=0.829)
    assert bb.term("third_moment_sqrt_n") == pytest.approx(
        2.0 / (SQRT6 * 0.829 ** 3 * 20.0), rel=1e-12)
    ref = bound_ball_normal(MomentSummary(d=3, n=400, x_w3_frob=2.0,
                                          x_w4_mean=15.0, sigma_cond=1.0),
                            beta=0.829)
    assert bb.total == pytest.approx(ref.total, rel=1e-12)
    # it is the ball-normal bound relabelled, term for term and bit for bit,
    # on the golden summary and on both from-sample passes of the golden X
    x = Sample(np.random.default_rng(20).exponential(size=(3000, 3)) - 1.0)
    sigma = np.loadtxt(io.StringIO(SUPPLIED_MATRICES["--sigma"]),
                       delimiter=",")
    for ms in (MomentSummary(**SUMMARY),
               summarize_sample(x, with_op_norms=False),
               summarize_sample(x, sigma=sigma, with_op_norms=False)):
        for beta in (0.829, 0.5):
            chi2, ball = score2_bound(ms, beta), bound_ball_normal(ms, beta)
            assert chi2.theorem == "score_chi2_level"
            assert (chi2.terms, chi2.total) == (ball.terms, ball.total)
            assert chi2.inputs["r3_chosen"] == "frobenius"
    with pytest.raises(ValueError, match="missing: x_w3_frob"):
        score2_bound(dataclasses.replace(ms, x_w3_frob=None, x_w3_op=1.0))


# ---------------------------------------------------------------------------
# β optimization
# ---------------------------------------------------------------------------

def test_optimize_beta_h1_alone():
    def ev(beta):
        return BoundBreakdown("h1", beta, [("h1", h_funcs(beta)[0])])

    beta_star, bb = optimize_beta(ev)
    grid = np.linspace(0.05, 0.995, 200001)
    h1_grid = [(h_funcs(float(b))[0], float(b)) for b in grid]
    _, argmin = min(h1_grid)
    assert abs(beta_star - argmin) <= 1e-3
    assert bb.total <= ev(0.829).total + 1e-12


def test_optimize_beta_constant_and_r3_dominant():
    const = lambda beta: BoundBreakdown("c", beta, [("c", 2.5)])
    beta_star, bb = optimize_beta(const)
    assert bb.total == pytest.approx(2.5)

    # a pure R₃ evaluator decays in β, so the optimum sits above 0.829
    r3 = lambda beta: BoundBreakdown("r3", beta, [("t", 1.0 / beta ** 3)])
    beta_star, bb = optimize_beta(r3)
    assert beta_star > 0.829
    # boundary minimum: β search tol 1e-4 costs ≈ 3e-4 in f near β = 1
    grid_min = min(1.0 / b ** 3 for b in np.linspace(0.05, 0.995, 100001))
    assert bb.total <= grid_min + 5e-4


def test_optimize_beta_on_real_bound_never_worse_than_default():
    ms = summarize_gaussian(np.eye(3), 2000)
    beta_star, bb = optimize_beta(lambda b: bound_ball_normal(ms, beta=b))
    assert bb.total <= bound_ball_normal(ms, beta=0.829).total + 1e-12


def test_optimize_beta_raises_when_never_finite():
    def bad(beta):
        raise ValueError("always infeasible")
    with pytest.raises(ValueError, match="no finite value"):
        optimize_beta(bad)


# ---------------------------------------------------------------------------
# summary builders
# ---------------------------------------------------------------------------

def test_summarize_gaussian_analytic_values():
    ms = summarize_gaussian(np.diag([1.0, 4.0]), 100)
    assert ms.x_w4_mean == pytest.approx(8.0)       # d² + 2d at d = 2
    assert ms.x_w4_op == 3.0
    assert ms.x_w3_frob == 0.0
    assert ms.x_c4_mean == pytest.approx(25.0 + 2 * 17.0)  # (trΣ)² + 2tr(Σ²)
    assert ms.sigma_cond == pytest.approx(4.0)
    assert ms.sigma_min_eig == 1.0


def test_summarize_sample_approaches_analytic_gaussian():
    x = sample_gaussian(np.eye(3), 150_000, seed=7)
    ms = summarize_sample(x, sigma=np.eye(3))
    assert ms.x_w4_mean == pytest.approx(15.0, rel=0.02)
    assert ms.x_w4_op == pytest.approx(3.0, rel=0.05)
    assert ms.x_w3_frob < 0.05
    assert ms.n == x.n and ms.d == 3
    # no one-sample theorem reads the unwhitened central moments
    assert ms.x_c3_frob is None and ms.x_c4_mean is None


def test_summarize_pair_same_and_diff_cov():
    a = sample_gaussian(np.eye(2), 60_000, seed=8)
    b = sample_gaussian(np.eye(2), 60_000, seed=9)
    ms = summarize_pair(a, b, sigma=np.eye(2), same_cov=True)
    assert ms.dw3_frob < 0.05
    assert ms.t_w4_mean == pytest.approx(8.0, rel=0.05)
    assert ms.x_w3_frob is None and ms.d3_frob is None

    c = sample_gaussian(np.diag([1.0, 1.21]), 60_000, seed=10)
    ms2 = summarize_pair(a, c, sigma=np.eye(2), sigma_t=np.diag([1.0, 1.21]),
                         same_cov=False)
    assert ms2.cov_gap_frob == pytest.approx(0.21, rel=1e-12)
    assert ms2.cov_gap_op == pytest.approx(0.21, rel=1e-12)
    assert ms2.lambda0_sq == 1.0
    # E‖T‖⁴ = (trΣ_T)² + 2tr(Σ_T²) for Gaussian T
    assert ms2.t_c4_mean == pytest.approx(2.21 ** 2 + 2 * (1 + 1.21 ** 2),
                                          rel=0.05)
    bb = bound_ball_general(ms2, same_cov=False)
    assert bb.term("covariance_gap") == pytest.approx(0.2162, rel=2e-3)
    assert ms2.x_w3_frob is None and ms2.x_w4_mean is None


# tensor operator norms, which only the half-space theorems read, and the
# max/nonzero-count norms, which only a supplied summary sets
OP_FIELDS = ("x_w3_op", "x_w4_op", "t_w4_op", "dw3_op", "d3_op", "x_raw4_op",
             "t_raw4_op")
MAX_NONZERO_FIELDS = ("x_w3_max", "x_w3_nonzero", "dw3_max", "dw3_nonzero",
                      "d3_max", "d3_nonzero", "d4_max")


def test_builders_build_operator_norms_only_when_asked():
    a = sample_gaussian(np.eye(2), 3000, seed=8)
    b = sample_gaussian(np.diag([1.0, 1.21]), 3000, seed=9)
    builders = {
        "x_w3_frob": lambda on: summarize_sample(a, with_op_norms=on),
        "dw3_frob": lambda on: summarize_pair(a, b, same_cov=True,
                                              with_op_norms=on),
        "d3_frob": lambda on: summarize_pair(a, b, same_cov=False,
                                             with_op_norms=on),
    }
    for frob, build in builders.items():
        bare, full = build(False), build(True)
        assert getattr(bare, frob) == getattr(full, frob) > 0.0, frob
        assert all(getattr(bare, f) is None for f in OP_FIELDS), frob
        assert all(getattr(ms, f) is None for ms in (bare, full)
                   for f in MAX_NONZERO_FIELDS), frob
        assert any(getattr(full, f) is not None for f in OP_FIELDS), frob
    # without the operator norm the ball bound's envelope is the Frobenius
    # norm alone, and its total is unchanged
    bare, full = summarize_sample(a, with_op_norms=False), summarize_sample(a)
    assert bound_ball_normal(bare).inputs["r3_surrogates"] == {
        "frobenius": bare.x_w3_frob}
    assert bound_ball_normal(bare).total == bound_ball_normal(full).total


def test_frobenius_envelope_is_never_above_the_others():
    # ‖A‖_F ≤ d·‖A‖ (slice A into d matrices; Banach 1938) and
    # ‖A‖_F ≤ max|a|·√nonzero (Cauchy–Schwarz): the sample builders set only
    # the Frobenius envelope, which is why these two may be left out.  The
    # first holds a fortiori for operator_norm's certified upper end.
    rng = np.random.default_rng(50)
    dense = [symmetrize(rng.standard_normal((d, d, d)))
             for d in (2, 3, 5, 8) for _ in range(5)]
    cases = [(a, sym2_form(a)) for a in dense]
    # the whitened third moment of the golden file's X sample
    x = np.random.default_rng(20).exponential(size=(3000, 3)) - 1.0
    xc = Sample(x - x.mean(axis=0))
    w = whiten(xc, SpdMatrix(xc.covariance()))
    cases.append((dense_moment(w.data, 3), empirical_moment(w, 3)))
    for a, t in cases:
        frob = math.sqrt(float(np.sum(a * a)))
        assert frob <= t.dim * operator_norm(t).value * (1.0 + 1e-12), t.dim
        assert frob <= (float(np.abs(a).max())
                        * math.sqrt(np.count_nonzero(a)) * (1.0 + 1e-12))


def test_bootstrap_and_score_summaries():
    z = sample_gaussian(np.eye(3), 150_000, seed=7)
    assert bootstrap_summary(z, sigma2=1.0).x_c3_frob < 0.05
    x = Sample(sample_gaussian(np.eye(2), 5000, seed=11).data + [1.0, -2.0])
    ms = bootstrap_summary(x, sigma2=1.0)
    assert ms.sigma2 == 1.0
    assert ms.x_c4_mean == pytest.approx(8.0, rel=0.1)   # centering removed μ
    msw = bootstrap_summary(x, sigma2=1.0, weight=4.0 * np.eye(2))
    assert msw.sigma_op == pytest.approx(4.0 * ms.sigma_op, rel=1e-9)
    with pytest.raises(ValueError):
        bootstrap_summary(x, sigma2=0.0)

    scores = sample_gaussian(np.eye(3), 2000, seed=12)
    msr = score_summary(scores, sigma2_s=1.0)
    assert msr.d == 3 and msr.n == 2000
    assert msr.sigma_min_eig == pytest.approx(1.0, rel=0.1)
    info = 2000 * np.eye(3)
    msr2 = score_summary(scores, sigma2_s=1.0, info=info)
    assert msr2.sigma_op == pytest.approx(1.0)


def test_sigma2_below_the_coordinate_variance_is_flagged():
    # N(0, I₃) rows have coordinate variances near 1: σ² = 0.05 cannot be
    # their sub-Gaussian factor, σ² = 5 can.  The certificate is flagged, not
    # refused (n = 10⁸ keeps both feasible).
    x = sample_gaussian(np.eye(3), 4000, seed=13)
    var = float(x.data.var(axis=0).max())
    for sigma2, below in ((0.05, True), (5.0, False)):
        ms = dataclasses.replace(bootstrap_summary(x, sigma2=sigma2),
                                 n=10 ** 8)
        assert ms.coord_var_max == pytest.approx(var, rel=1e-12)
        assert bootstrap_delta(ms).inputs["sigma2_below_variance"] is below
        msr = score_summary(x, sigma2_s=sigma2)
        assert msr.coord_var_max == pytest.approx(var, rel=1e-12)
        bb = delta_R(dataclasses.replace(msr, n=10 ** 8))
        assert bb.inputs["sigma2_below_variance"] is below
    # with a weight W the rows summarized are W^{1/2}x: variances near 100
    msw = dataclasses.replace(
        bootstrap_summary(x, sigma2=5.0, weight=100.0 * np.eye(3)), n=10 ** 8)
    assert msw.coord_var_max == pytest.approx(100.0 * var, rel=1e-9)
    assert delta_W(msw).inputs["sigma2_below_variance"] is True
    # a summary that does not record the variance carries no flag
    bare = dataclasses.replace(ms, coord_var_max=None)
    assert "sigma2_below_variance" not in bootstrap_delta(bare).inputs


def test_coord_var_max_is_the_largest_diagonal_entry_of_the_covariance():
    x = Sample(np.random.default_rng(14).exponential(size=(2000, 3)) - 1.0)
    top = float(np.diag(x.covariance()).max())
    # a supplied Σ or information matrix does not change what is read
    assert bootstrap_summary(x, 1.0).coord_var_max == top
    assert bootstrap_summary(x, 1.0, sigma=np.eye(3)).coord_var_max == top
    assert score_summary(x, 1.0).coord_var_max == top
    assert score_summary(x, 1.0, info=2000 * np.eye(3)).coord_var_max == top


def test_a_supplied_sigma_under_a_weight_is_the_covariance_of_x():
    # --sigma is Var X on every route: under W the summary reads
    # W^{1/2}ΣW^{1/2}, so the rows' own covariance reproduces the default
    x = Sample(np.random.default_rng(15).exponential(size=(2000, 3)) - 1.0)
    w = np.loadtxt(io.StringIO(SUPPLIED_MATRICES["--weight"]), delimiter=",")
    default = dataclasses.asdict(bootstrap_summary(x, 1.0, weight=w))
    supplied = dataclasses.asdict(
        bootstrap_summary(x, 1.0, sigma=x.covariance(), weight=w))
    assert supplied == pytest.approx(default, rel=1e-12)
