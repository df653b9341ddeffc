"""Tensor core: moments, norms, SPD wrapper, Hermite integrals."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from cltcert import bootstrap, distances, tensors
from cltcert.tensors import (
    MomentTensor,
    Sample,
    SpdError,
    SpdMatrix,
    TensorShapeError,
    empirical_moment,
    frobenius_norm,
    hermite_interval_integral,
    hermite_value,
    operator_norm,
    whiten,
)
from dense import dense_moment, sym2_form, symmetrize


def naive_moment(x, k):
    out = np.zeros((x.shape[1],) * k)
    for row in x:
        outer = row
        for _ in range(k - 1):
            outer = np.multiply.outer(outer, row)
        out += outer
    return out / x.shape[0]


def _contract_to_vector(data, v, order):
    out = data
    for _ in range(order - 1):
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return out


def reference_operator_norm(data, n_restarts=8, max_iter=200, tol=1e-12,
                            seed=0):
    """The power iteration one start at a time on a dense tensor:
    (value, converged, iterations)."""
    k, d = data.ndim, data.shape[0]
    rng = np.random.default_rng(seed)
    starts = [e for e in np.eye(d)]
    if d <= 16:
        for i in range(d):
            for j in range(i + 1, d):
                for s in (1.0, -1.0):
                    v = np.zeros(d)
                    v[i], v[j] = 1.0, s
                    starts.append(v / np.sqrt(2.0))
    for _ in range(max(n_restarts, 1)):
        g = rng.standard_normal(d)
        starts.append(g / np.linalg.norm(g))
    shift = k * float(np.sqrt(np.sum(data ** 2))) + 1e-30
    best, all_converged, total_iters = 0.0, True, 0
    for v0 in starts:
        v = v0.copy()
        fval = float(_contract_to_vector(data, v, k) @ v)
        converged = False
        for it in range(max_iter):
            w = _contract_to_vector(data, v, k) + shift * v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v_new = w / nw
            f_new = float(_contract_to_vector(data, v_new, k) @ v_new)
            step = float(np.linalg.norm(v_new - v))
            v = v_new
            if abs(f_new - fval) <= tol * max(1.0, abs(f_new)) and step < 1e-8:
                fval = f_new
                converged = True
                break
            fval = f_new
        total_iters += it + 1
        all_converged = all_converged and converged
        best = max(best, abs(fval))
    return best, all_converged, total_iters


def _values_at_random_units(tensor):
    """|⟨A, v^{⊗k}⟩| at 10⁴ seeded random unit v, read off the form:
    vᵀ C m(v) at order 3 and m(v)ᵀ G m(v) at order 4."""
    d = tensor.dim
    v = np.random.default_rng(0).standard_normal((10 ** 4, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    i, j, w = tensors._sym2_basis(d)
    m = v[:, i] * v[:, j] * w
    left = v if tensor.order == 3 else m
    return np.abs(np.einsum("ap,ap->a", m @ tensor.data.T, left))


def assert_brackets_reference(dense, tensor=None):
    """operator_norm of ``tensor`` (by default the form of ``dense``) is at
    least the dense per-start power iteration's lower estimate and |f(v)|
    at 10⁴ random unit v."""
    tensor = sym2_form(dense) if tensor is None else tensor
    res = operator_norm(tensor)
    assert reference_operator_norm(dense)[0] <= res.value
    assert _values_at_random_units(tensor).max() <= res.value
    return res


# ---------------------------------------------------------------------------
# MomentTensor basics
# ---------------------------------------------------------------------------

def test_moment_tensor_shape_validation():
    # the forms are d×D and D×D, D = d(d+1)/2: a dense tensor is refused
    MomentTensor(3, 2, np.zeros((2, 3)))
    MomentTensor(4, 2, np.zeros((3, 3)))
    with pytest.raises(TensorShapeError):
        MomentTensor(3, 2, np.zeros((2, 2, 2)))
    with pytest.raises(TensorShapeError):
        MomentTensor(4, 3, np.zeros((3, 6)))
    with pytest.raises(TensorShapeError, match="order must be 3 or 4"):
        MomentTensor(2, 3, np.ones((3, 3)))
    # order 4 at d = 180 (D = 16290) is the largest admissible form, and
    # its D² cap is checked before any array is looked at
    assert tensors._form_shape(4, 180) == (16290, 16290)
    with pytest.raises(TensorShapeError, match="cells"):
        MomentTensor(4, 181, np.zeros(1))


def test_moment_tensor_refuses_non_finite_forms():
    # a NaN or infinite form has no operator norm to bound
    for bad in (np.nan, np.inf, -np.inf):
        for k, shape in ((3, (2, 3)), (4, (3, 3))):
            data = np.zeros(shape)
            data[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                MomentTensor(k, 2, data)
    # finite rows whose fourth-order products overflow
    rows = Sample(np.full((4, 2), 1e160))
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="non-finite"):
        empirical_moment(rows, 4)


def test_empirical_moment_matches_naive_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 3))
    s = Sample(x)
    for k in (3, 4):
        t = empirical_moment(s, k)
        np.testing.assert_allclose(t.data, sym2_form(naive_moment(x, k)).data,
                                   rtol=1e-12)
    # the bounds read the third and fourth moments only
    for k in (1, 2, 5):
        with pytest.raises(ValueError, match="order must be 3 or 4"):
            empirical_moment(s, k)
        with pytest.raises(ValueError, match="order must be 3 or 4"):
            MomentTensor(k, 3, np.zeros((3, 6)))


def test_empirical_moment_accumulates_many_chunks(monkeypatch):
    # rows per chunk: 7 by a 105-cell budget, then 5 by a 75-cell budget
    # (D = 15 cells of p(x) per row at both orders)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 5))
    s = Sample(x)
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 7 * 15)
    for k in (3, 4):
        np.testing.assert_allclose(empirical_moment(s, k).data,
                                   sym2_form(naive_moment(x, k)).data,
                                   rtol=1e-12)
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 75)
    for k in (3, 4):
        np.testing.assert_allclose(empirical_moment(s, k).data,
                                   sym2_form(naive_moment(x, k)).data,
                                   rtol=1e-12)


def test_empirical_moment_centering_and_chunking(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1000, 2)) + 5.0
    xc = x - x.mean(axis=0)
    # 128 rows of D = 3 cells per chunk
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 128 * 3)
    t = empirical_moment(Sample(xc), 4)
    np.testing.assert_allclose(t.data, sym2_form(naive_moment(xc, 4)).data,
                               rtol=1e-10)


@pytest.mark.parametrize("d", [3, 5, 8, 17])
def test_forms_keep_the_frobenius_norm_and_the_unfolding_spectrum(d):
    # m is an isometry from symmetric matrices: ‖C‖_F = ‖A₃‖_F,
    # ‖G‖_F = ‖A₄‖_F, and G is the d²×d² unfolding of A₄ restricted to
    # symmetric matrices, which hold its range
    x = np.random.default_rng(400 + d).exponential(size=(2000, d)) - 1.0
    for k in (3, 4):
        form, dense = empirical_moment(Sample(x), k), dense_moment(x, k)
        assert frobenius_norm(form) == pytest.approx(
            math.sqrt(float(np.sum(dense ** 2))), rel=1e-12)
        np.testing.assert_allclose(form.data, sym2_form(dense).data,
                                   rtol=1e-9, atol=1e-12)
    assert np.linalg.eigvalsh(form.data)[-1] == pytest.approx(
        np.linalg.eigvalsh(dense.reshape(d * d, d * d))[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_frobenius_max_nonzero():
    # ‖A‖_F = √(3·2² + 6²) = √48 is below max|a|·√nonzero = 6·√4; the two
    # are equal only when the nonzero entries share one magnitude
    data = np.zeros((3, 3, 3))
    for i in set(itertools.permutations((0, 0, 1))):
        data[i] = 2.0
    data[2, 2, 2] = -6.0
    t = sym2_form(data)
    assert frobenius_norm(t) == pytest.approx(math.sqrt(48.0))
    assert frobenius_norm(t) < np.abs(data).max() * math.sqrt(
        np.count_nonzero(data))


def _whitened_rows(rng, d):
    x = rng.exponential(size=(2000, d)) - 1.0
    xc = Sample(x - x.mean(axis=0))
    return whiten(xc, SpdMatrix(xc.covariance()))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("d", [2, 3, 5, 8, 17])
def test_operator_norm_matches_per_start_loop(d, k):
    # the form built by empirical_moment, and random symmetric tensors,
    # whose order-4 forms take both signs, against the dense per-start loop
    rng = np.random.default_rng(100 * d + k)
    w = _whitened_rows(rng, d)
    assert_brackets_reference(dense_moment(w.data, k), empirical_moment(w, k))
    if d < 17:
        assert_brackets_reference(symmetrize(rng.standard_normal((d,) * k)))


# (power-iteration lower end, certified operator_norm(...).value) of the
# whitened moments of 2000 centered exponential rows (seed 400 + d), per
# (d, order); the lower ends are the multi-start power iteration's values
GOLDEN_NORMS = {
    (3, 3): (2.0913042311919208, 2.0958447588550553),
    (3, 4): (9.65322894096783, 9.676030550713456),
    (5, 3): (2.192804073581991, 2.2088168319140684),
    (5, 4): (9.920227453388069, 9.980161491978912),
    (8, 3): (2.2375649100267396, 2.3129901074419728),
    (8, 4): (10.439142175500754, 10.788684845372757),
    (17, 3): (2.270254121934858, 2.4019643119242127),
    (17, 4): (11.616016124387231, 12.143644395693427),
}


@pytest.mark.parametrize("d", [3, 5, 8, 17])
def test_operator_norm_matches_golden_values(d):
    x = np.random.default_rng(400 + d).exponential(size=(2000, d)) - 1.0
    xc = Sample(x - x.mean(axis=0))
    w = whiten(xc, SpdMatrix(xc.covariance()))
    for k in (3, 4):
        lower, certified = GOLDEN_NORMS[d, k]
        value = operator_norm(empirical_moment(w, k)).value
        assert value == pytest.approx(certified, rel=1e-12)
        assert lower <= value


def test_operator_norm_zero_tensor_converges_in_one_step():
    # one eigensolve a side: the bound at s = 0 is 0, which no search can
    # lower
    for k in (3, 4):
        res = assert_brackets_reference(np.zeros((3,) * k))
        assert (res.value, res.converged, res.iterations) == (0.0, True,
                                                               k - 2)


def test_operator_norm_is_exact_at_d1():
    # L₀ = 0 at d = 1, and the form is the tensor's one entry
    for k in (3, 4):
        res = operator_norm(MomentTensor(k, 1, np.array([[-2.7]])))
        assert (res.value, res.converged) == (2.7, True)
    rows = Sample(np.random.default_rng(25).exponential(size=(500, 1)))
    for k in (3, 4):
        t = empirical_moment(rows, k)
        assert operator_norm(t).value == t.data[0, 0]


@pytest.mark.parametrize("k", [3, 4])
def test_every_multiplier_bounds_the_norm_and_none_beats_the_search(k):
    # m(v)ᵀ L₀ m(v) = 0, so λ_max(H + s·L₀) bounds sup m(v)ᵀ H m(v) at every
    # s on a grid, and none of them is below the searched minimum by more
    # than the rounding allowance and the search tolerance
    d = 5
    x = np.random.default_rng(26).exponential(size=(3000, d)) - 1.0
    xc = Sample(x - x.mean(axis=0))
    t = empirical_moment(whiten(xc, SpdMatrix(xc.covariance())), k)
    h = t.data.T @ t.data if k == 3 else t.data
    i, j, _ = tensors._sym2_basis(d)
    m_eye = (i == j).astype(float)
    l0 = np.eye(h.shape[0]) - np.outer(m_eye, m_eye)
    grid = np.linspace(-3.0, 6.0, 451)
    lam = np.array([np.linalg.eigvalsh(h + s * l0)[-1] for s in grid])
    sup = _values_at_random_units(t).max() ** (2 if k == 3 else 1)
    value = operator_norm(t).value ** (2 if k == 3 else 1)
    assert lam.min() >= sup
    assert lam.min() >= value * (1.0 - 1e-10)
    # the grid holds the minimum: its ends are above the best grid point
    assert lam.argmin() not in (0, grid.size - 1)


def test_operator_norm_rank_one_order3():
    # ⟨u⊗u⊗u, v⊗v⊗v⟩ = ⟨u,v⟩³ is maximized at v = u/‖u‖, value ‖u‖³
    rng = np.random.default_rng(22)
    u = rng.standard_normal(4)
    t = sym2_form(np.einsum("i,j,k->ijk", u, u, u))
    res = operator_norm(t)
    assert res.value == pytest.approx(np.linalg.norm(u) ** 3, rel=1e-9)


def test_operator_norm_diagonal_order3():
    # for diagonal A, Σ a_i v_i³ ≤ max|a_i| · Σ|v_i|³ ≤ max|a_i| on the sphere
    d = 6
    diag = np.array([0.5, -2.5, 1.0, 2.0, -0.3, 0.9])
    data = np.zeros((d, d, d))
    for i in range(d):
        data[i, i, i] = diag[i]
    res = operator_norm(sym2_form(data))
    assert res.value == pytest.approx(2.5, rel=1e-9)


def test_operator_norm_gaussian_fourth_moment():
    # E⟨Z,v⟩⁴ = 3‖v‖⁴ for Z ~ N(0, I), so ‖E[Z^⊗4]‖ = 3
    d = 4
    eye = np.eye(d)
    data = (np.einsum("ij,kl->ijkl", eye, eye)
            + np.einsum("ik,jl->ijkl", eye, eye)
            + np.einsum("il,jk->ijkl", eye, eye))
    res = operator_norm(sym2_form(data))
    assert res.converged
    assert res.value == pytest.approx(3.0, rel=1e-9)


def test_operator_norm_even_order_negative_part():
    # -E[Z^⊗4] has operator norm 3 as well (sup of |⟨A, v^⊗4⟩|)
    d = 3
    eye = np.eye(d)
    data = -(np.einsum("ij,kl->ijkl", eye, eye)
             + np.einsum("ik,jl->ijkl", eye, eye)
             + np.einsum("il,jk->ijkl", eye, eye))
    res = operator_norm(sym2_form(data))
    assert res.value == pytest.approx(3.0, rel=1e-9)


def test_operator_norm_vs_grid_search_d2():
    # exhaustive 1-parameter search is an independent oracle in d = 2
    rng = np.random.default_rng(23)
    for trial in range(5):
        raw = rng.standard_normal((2, 2, 2))
        data = symmetrize(raw)
        t = sym2_form(data)
        theta = np.linspace(0.0, 2.0 * np.pi, 200001)
        v = np.stack([np.cos(theta), np.sin(theta)])
        vals = np.einsum("ijk,ia,ja,ka->a", data, v, v, v)
        grid_max = np.abs(vals).max()
        res = operator_norm(t)
        assert res.value >= grid_max - 1e-6
        assert res.value <= grid_max + 1e-6


def test_operator_norm_dominates_max_norm_scaled():
    # ‖A‖ ≥ |a_{i...i}| (v = e_i), and the bound at s = 0 is at most
    # λ_max(±G) ≤ ‖G‖_F = ‖A‖_F
    rng = np.random.default_rng(24)
    data = symmetrize(rng.standard_normal((3, 3, 3, 3)))
    t = sym2_form(data)
    res = operator_norm(t)
    assert res.value >= max(abs(data[i, i, i, i]) for i in range(3)) - 1e-12
    assert res.value <= frobenius_norm(t) + 1e-12


# ---------------------------------------------------------------------------
# SpdMatrix
# ---------------------------------------------------------------------------

def test_spd_round_trip_and_inverse_sqrt():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    s = SpdMatrix(sigma)
    np.testing.assert_allclose(s.sqrt() @ s.sqrt(), sigma, rtol=1e-10, atol=1e-12)
    w = s.inv_sqrt()
    np.testing.assert_allclose(w @ sigma @ w, np.eye(4), rtol=1e-9, atol=1e-11)
    assert s.min_eigenvalue > 0.0
    assert s.operator_norm == pytest.approx(np.linalg.eigvalsh(sigma)[-1])


def test_spd_rejects_bad_inputs():
    with pytest.raises(SpdError):
        SpdMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(SpdError):
        SpdMatrix(np.array([[1.0, 0.0], [0.0, -2.0]]))  # not PD
    with pytest.raises(SpdError):
        SpdMatrix(np.diag([1.0, 0.0]))  # singular


def test_spd_refuses_ill_conditioned_inverse_sqrt():
    s = SpdMatrix(np.diag([1.0, 1e-13]))
    assert s.condition_number > 1e12
    with pytest.raises(SpdError):
        s.inv_sqrt()
    # but well-conditioned queries still work
    assert s.trace == pytest.approx(1.0 + 1e-13)


# ---------------------------------------------------------------------------
# Sample container
# ---------------------------------------------------------------------------

def test_sample_csv_round_trip_and_determinism(tmp_path):
    rng = np.random.default_rng(41)
    s = Sample(rng.standard_normal((17, 3)))
    path = tmp_path / "x.csv"
    s.to_csv(str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,x3"
    s2 = Sample.from_csv(str(path))
    np.testing.assert_array_equal(s.data, s2.data)
    again = tmp_path / "again.csv"
    s2.to_csv(str(again))
    assert again.read_text() == text


@pytest.mark.parametrize("text", [
    "x1,x2\n",                      # header only
    "x1,x2\n\n",                   # header and a blank line
    "x1,x2\n1.0,2.0\n3.0\n",       # ragged rows
    "x1,x2,x3\n1.0,2.0\n3.0,4.0\n",  # rows narrower than the header
    "x1,x2\n1.0,nan\n",             # non-finite entry
    "x1,x2\n1.0,abc\n",             # not a number
    "",                             # no header
])
def test_sample_from_csv_rejects_malformed_input(text, tmp_path, recwarn):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        Sample.from_csv(str(path))
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_sample_from_csv_reads_files_and_quoted_fields(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text('x1,"x2"\n"1.5",-2e-3\n\n3,4\n')
    s = Sample.from_csv(str(path))
    np.testing.assert_array_equal(s.data, [[1.5, -2e-3], [3.0, 4.0]])
    path.write_text("x1\n0.25\n")
    assert Sample.from_csv(str(path)).data.shape == (1, 1)


# each file's bytes, all parsing to the same rows: the header is read as
# one CSV record, so the body starts after however many lines it spans
@pytest.mark.parametrize("raw", [
    b"x1,x2\r\n1.5,-2\r\n3,4e-3\r\n",
    "\ufeffx1,x2\n1.5,-2\n3,4e-3\n".encode("utf-8"),
    b'"x\n1",x2\n1.5,-2\n3,4e-3\n',
    b'x1,x2\n\n"1.5","-2"\n\n"3",4e-3\n\n',
    '\ufeff"x\r\n1",x2\r\n1.5,-2\r\n3,4e-3\r\n'.encode("utf-8"),
], ids=["crlf", "utf8-bom", "two-line-header", "quoted-fields-blank-lines",
        "utf8-bom-two-line-header"])
def test_sample_from_csv_parses_line_ends_bom_and_quoting(raw, tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(raw)
    data = Sample.from_csv(str(path)).data
    assert data.tolist() == [[1.5, -2.0], [3.0, 0.004]]


def test_sample_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(44)
    x = rng.standard_normal((500, 4)) * np.array([1e-300, 1.0, 1e300, 3.0])
    x[0, 1] = -0.0
    path = str(tmp_path / "x.csv")
    Sample(x).to_csv(path)
    back = Sample.from_csv(path).data
    assert back.tobytes() == x.tobytes()


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
def test_sample_rejects_no_rows_or_no_columns(shape):
    with pytest.raises(ValueError, match="at least one row and one column"):
        Sample(np.zeros(shape))


def test_whiten_gives_identity_covariance():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 3))
    x = rng.standard_normal((5000, 3)) @ a.T
    w = whiten(Sample(x), SpdMatrix(Sample(x).covariance()))
    np.testing.assert_allclose(w.covariance(), np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# Hermite integrals
# ---------------------------------------------------------------------------

def test_hermite_values_match_explicit_polynomials():
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(hermite_value(0, x), np.ones_like(x))
    np.testing.assert_allclose(hermite_value(1, x), x)
    np.testing.assert_allclose(hermite_value(2, x), x ** 2 - 1)
    np.testing.assert_allclose(hermite_value(3, x), x ** 3 - 3 * x)
    np.testing.assert_allclose(hermite_value(4, x), x ** 4 - 6 * x ** 2 + 3)
    np.testing.assert_allclose(
        hermite_value(6, x), x ** 6 - 15 * x ** 4 + 45 * x ** 2 - 15)


def test_hermite_integral_matches_quadrature():
    def integrand(k):
        return lambda x: hermite_value(k, x) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    cases = [(0, -1.0, 2.0), (1, -0.5, 1.5), (2, 0.0, 3.0),
             (3, -2.0, -1.0), (4, -1.0, 1.0), (5, 0.3, 0.9), (6, -3.0, 2.0)]
    for k, a, b in cases:
        num, _ = integrate.quad(integrand(k), a, b)
        assert hermite_interval_integral(k, a, b) == pytest.approx(num, abs=1e-10)


def test_hermite_integral_infinite_endpoints():
    # full-line integral of He_k·φ is the k-th moment orthogonality: 0 for k ≥ 1
    for k in range(1, 7):
        assert hermite_interval_integral(k, -math.inf, math.inf) == pytest.approx(0.0, abs=1e-15)
    assert hermite_interval_integral(0, -math.inf, math.inf) == pytest.approx(1.0)
    # half-line, k = 3: antiderivative −He₂·φ evaluated at 0 gives +φ(0)
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    assert hermite_interval_integral(3, -math.inf, 0.0) == pytest.approx(phi0, rel=1e-12)
    # cross-check by direct quadrature
    num, _ = integrate.quad(
        lambda x: (x ** 3 - 3 * x) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        -40.0, 0.0)
    assert hermite_interval_integral(3, -math.inf, 0.0) == pytest.approx(num, abs=1e-10)


def test_hermite_integral_bounded_by_sqrt_factorial():
    # |∫_a^b He_k φ| = |He_{k-1}(b)φ(b) − He_{k-1}(a)φ(a)| ≤ √(k!)
    rng = np.random.default_rng(43)
    for _ in range(100):
        a, b = np.sort(rng.uniform(-8, 8, size=2))
        for k in range(0, 7):
            val = hermite_interval_integral(k, float(a), float(b))
            assert abs(val) <= math.sqrt(math.factorial(k)) + 1e-12


# ---------------------------------------------------------------------------
# memory: p(x) blocks stay within the cell budget, norms hold few buffers
# ---------------------------------------------------------------------------

BUDGET_CELLS = 2 ** 14

# bytes of numpy's ufunc iteration buffers (8192 elements an operand), which
# do not grow with the inputs
UFUNC_BUFFERS = 2 ** 18


def test_empirical_moment_memory_stays_within_the_cell_budget(monkeypatch,
                                                            run_traced):
    # order 4: 455 rows of D = 36 cells per budget at d = 8 (n = 36
    # budgets of p(x) rows), 13 rows of D = 1176 at d = 48 (72 budgets);
    # beyond one p(x) block, only the form and one reused product are live
    monkeypatch.setattr(tensors, "CHUNK_CELLS", BUDGET_CELLS)
    for d, n in ((8, 16 * 1024), (48, 1000)):
        sym = d * (d + 1) // 2
        s = Sample(np.random.default_rng(51).standard_normal((n, d)))
        _, peak = run_traced(lambda: empirical_moment(s, 4))
        assert peak < 8 * (2 * sym * sym + BUDGET_CELLS) + UFUNC_BUFFERS, d


def test_one_budget_chunks_every_kernel(monkeypatch, projection_blocks):
    # 1000 cells: 3 Efron replicates of n = 300 (25 in 9 chunks), 35 moment
    # rows of D = 28 cells (200 in 6 chunks) and 3 half-space directions of
    # 150 + 150 projected rows (12 in 4 blocks); each kernel must split under
    # this one value
    monkeypatch.setattr(tensors, "CHUNK_CELLS", 1000)
    chunks = {}

    def count(module, name):
        fn = getattr(module, name)

        def spy(*args):
            chunks[name] = chunks.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(module, name, spy)

    for module, name in ((bootstrap, "_resample_counts"),
                         (tensors, "_pair_products")):
        count(module, name)
    rng = np.random.default_rng(61)
    c = rng.standard_normal((300, 3))
    means = bootstrap._resample_means(c, 25, np.random.default_rng(9))
    draws = np.random.default_rng(9).integers(0, 300, size=(25, 300))
    np.testing.assert_allclose(means, c[draws].mean(axis=1), rtol=1e-12)
    x = rng.standard_normal((200, 7))
    moment = empirical_moment(Sample(x), 4)
    dense = naive_moment(x, 4)
    np.testing.assert_allclose(moment.data, sym2_form(dense).data, rtol=1e-12)
    assert_brackets_reference(dense, moment)
    sa = Sample(rng.standard_normal((150, 2)))
    sb = Sample(rng.standard_normal((150, 2)) + 0.5)
    assert distances.delta_H_hat(sa, sb, n_dirs=10, n_boot=0).value > 0.2
    assert chunks == {"_resample_counts": 9, "_pair_products": 6}
    assert projection_blocks == [3, 3, 3, 3]


def test_operator_norm_memory_is_the_form_and_three_square_buffers(
        run_traced):
    # beyond the form, the search holds the scaled H (C at order 3 first,
    # then CᵀC), H + s·L₀ and the eigensolver's copy of it: at most three
    # D×D matrices.  d = 48 and 64 are left out: a call there is 62 dense
    # eigensolves of a D = 1176 or 2080 matrix, 10.5 s at d = 48 on one
    # core of a 2-vCPU Xeon
    for d in (16, 32):
        sym = d * (d + 1) // 2
        rows = np.random.default_rng(52).standard_normal((400, d))
        for k in (3, 4):
            t = empirical_moment(Sample(rows), k)
            _, peak = run_traced(lambda: operator_norm(t))
            assert peak < 8 * 3 * sym * sym + UFUNC_BUFFERS, (d, k)


def test_frobenius_norm_is_finite_and_makes_no_form_sized_temporary(
        run_traced):
    # entries above 1e154 overflow a plain sum of squares
    t = MomentTensor(3, 2, np.full((2, 3), 1e200))
    assert frobenius_norm(t) == pytest.approx(1e200 * math.sqrt(6.0),
                                              rel=1e-15)
    assert math.isfinite(operator_norm(t).value)
    # an order-4 form of D² = 1176² cells (11 MB) is summed one scaled
    # CHUNK_CELLS chunk (2 MB) at a time
    data = np.random.default_rng(53).standard_normal((1176, 1176))
    t = MomentTensor(4, 48, data)
    value, peak = run_traced(lambda: frobenius_norm(t))
    assert value == pytest.approx(math.sqrt(float(np.sum(data * data))),
                                  rel=1e-12)
    assert peak < 8 * tensors.CHUNK_CELLS + UFUNC_BUFFERS
