"""End-to-end tests for the command-line interface.

Most tests drive ``cli.main`` in-process and inspect captured stdout; a few
use subprocesses to pin down exit codes and byte-level determinism.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from cltcert import cli, engine
from cltcert.bootstrap import bootstrap_ball_quantile, chi2_quantile
from cltcert.engine import bound_ball_normal, summarize_gaussian
from cltcert.samplers import DistributionSpec
from cltcert.tensors import Sample, SpdMatrix


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def gaussian_csvs(tmp_path):
    rng = np.random.default_rng(42)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    Sample(rng.standard_normal((400, 2))).to_csv(str(a))
    Sample(rng.standard_normal((400, 2)) + [3.0, 0.0]).to_csv(str(b))
    return str(a), str(b)


@pytest.fixture
def score_csv(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "scores.csv"
    Sample(rng.standard_normal((300, 3))).to_csv(str(path))
    return str(path)


# ---------------------------------------------------------------------------
# verify-constants
# ---------------------------------------------------------------------------

def test_verify_constants_reports_all_tuples(capsys):
    code, out, _ = run_cli(["verify-constants"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert len(payload["rows"]) == 3
    lhs = {row["K"]: row["lhs"] for row in payload["rows"]}
    assert lhs[3] == pytest.approx(0.9998568, abs=5e-7)
    assert lhs[4] == pytest.approx(0.9568009, abs=5e-7)
    assert lhs[6] == pytest.approx(0.9329811, abs=5e-7)
    assert all(row["ok"] for row in payload["rows"])


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_from_moments_matches_library(tmp_path, capsys):
    ms = summarize_gaussian(SpdMatrix(np.diag([1.0, 4.0])), n=10_000)
    path = tmp_path / "m.json"
    path.write_text(ms.to_json())
    code, out, err = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    direct = bound_ball_normal(ms)
    assert payload["total"] == pytest.approx(direct.total, rel=1e-12)
    assert payload["theorem"] == "ball_normal"
    assert "total" in err  # human note goes to stderr


def test_bound_beta_optimize_not_worse_than_default(tmp_path, capsys):
    ms = summarize_gaussian(SpdMatrix(np.eye(3)), n=500)
    path = tmp_path / "m.json"
    path.write_text(ms.to_json())
    _, out_def, _ = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path)], capsys)
    _, out_opt, _ = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path),
         "--beta", "optimize"], capsys)
    assert json.loads(out_opt)["total"] <= json.loads(out_def)["total"] + 1e-9


def test_bound_from_sample_pair(tmp_path, gaussian_csvs, capsys):
    a, b = gaussian_csvs
    code, out, _ = run_cli(
        ["bound", "--theorem", "ball-diff-cov", "--from-sample", a,
         "--second-sample", b], capsys)
    assert code == 0
    payload = json.loads(out)
    names = [t["name"] for t in payload["terms"]]
    assert "covariance_gap" in names
    assert payload["total"] > 0


def test_bound_pair_theorem_needs_second_sample(gaussian_csvs, capsys):
    a, _ = gaussian_csvs
    code, _, err = run_cli(
        ["bound", "--theorem", "ball-diff-cov", "--from-sample", a], capsys)
    assert code == 2
    assert "second-sample" in err


def test_bound_symmetric_requires_moments(gaussian_csvs, capsys):
    a, _ = gaussian_csvs
    code, _, err = run_cli(
        ["bound", "--theorem", "symmetric", "--from-sample", a], capsys)
    assert code == 2
    assert "--moments" in err


@pytest.mark.parametrize("theorem", ["symmetric", "symmetric-max"])
def test_bound_symmetric_theorems_take_beta_like_every_other(
        theorem, tmp_path, capsys):
    # they have no β: any number, or optimize, leaves stdout as it is, and a
    # --beta that is neither is refused as for every other theorem
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "d": 3, "n": 10_000, "x_m6": 110.0, "l_m6": 120.0, "u6_mean": 30.0,
        "z6_mean": 105.0, "d4_frob": 0.6, "d4_max": 0.2, "m6_sym": 15.5,
        "lambda_z_sq": 0.45}))
    argv = ["bound", "--theorem", theorem, "--moments", str(path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["beta"] is None
    for beta in ("0.829", "0.5", "optimize"):
        assert run_cli(argv + ["--beta", beta], capsys)[:2] == (0, out)
    code, out, err = run_cli(argv + ["--beta", "junk"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ")


def test_bound_needs_some_input(capsys):
    code, _, err = run_cli(["bound", "--theorem", "ball-normal"], capsys)
    assert code == 2
    assert "moments" in err


def test_bound_infeasible_certificate_exits_3(tmp_path, capsys):
    # no β repairs the feasibility condition, so the β search reports it too
    rng = np.random.default_rng(1)
    path = tmp_path / "x.csv"
    Sample(rng.standard_normal((200, 3))).to_csv(str(path))
    for beta in ("0.829", "optimize"):
        code, _, err = run_cli(
            ["bound", "--theorem", "bootstrap-ball", "--from-sample",
             str(path), "--sigma2", "1.0", "--beta", beta], capsys)
        assert code == 3
        assert "infeasible" in err


def test_bound_refuses_a_fourth_moment_form_above_the_cap(tmp_path, capsys):
    # d = 200: the order-4 form would hold D² = 20100² cells, above
    # MAX_FORM_CELLS; the refusal depends on d only, so few rows suffice
    path = tmp_path / "wide.csv"
    Sample(np.random.default_rng(5).standard_normal((256, 200))).to_csv(
        str(path))
    code, out, err = run_cli(["bound", "--theorem", "halfspace-normal",
                              "--from-sample", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("configuration error: the order-4 moment form at dim 200 "
                   "would need 404010000 > 268435456 cells\n")


# every route that reads a supplied matrix: (flag, argv on samples A and B)
MATRIX_FLAGS = pytest.mark.parametrize("flag, argv", [
    ("--sigma", ["bound", "--theorem", "ball-normal", "--from-sample", "A"]),
    ("--sigma-t", ["bound", "--theorem", "ball-diff-cov", "--from-sample",
                   "A", "--second-sample", "B"]),
    ("--weight", ["bootstrap", "--test", "ball", "--data", "A", "--alpha",
                  "0.1", "--B", "200", "--seed", "1"]),
    ("--info", ["score-test", "--data", "A", "--alpha", "0.05"]),
    ("--sigma", ["bound", "--theorem", "ball-diff-cov", "--from-sample", "A",
                 "--second-sample", "B"]),
    ("--sigma-t", ["bound", "--theorem", "halfspace-diff-cov",
                   "--from-sample", "A", "--second-sample", "B"]),
    ("--sigma", ["bound", "--theorem", "bootstrap-ball", "--from-sample", "A",
                 "--sigma2", "1", "--n", "100000000"]),
    ("--weight", ["bound", "--theorem", "elliptical", "--from-sample", "A",
                  "--sigma2", "1", "--n", "100000000"]),
    ("--info", ["bound", "--theorem", "score-bootstrap", "--from-sample", "A",
                "--sigma2", "1", "--n", "100000000"]),
    ("--info", ["bootstrap", "--test", "score", "--data", "A", "--alpha",
                "0.1", "--B", "200", "--seed", "1", "--sigma2", "1"]),
], ids=lambda v: v if isinstance(v, str) else None)


@pytest.mark.parametrize("value", ["nan", "inf"])
@MATRIX_FLAGS
def test_non_finite_matrix_flag_exits_2(flag, argv, value, tmp_path,
                                        gaussian_csvs, capsys):
    # the entry is refused as non-finite before any other check: an inf
    # once gave a NaN quantile and a NaN was called "not symmetric"
    matrix = np.eye(2)
    matrix[0, 1] = float(value)
    path = tmp_path / "m.csv"
    np.savetxt(str(path), matrix, delimiter=",")
    files = dict(zip("AB", gaussian_csvs))
    code, out, err = run_cli([files.get(v, v) for v in argv]
                             + [flag, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "configuration error: matrix has non-finite entries\n"


@pytest.mark.parametrize("dim", [1, 3])
@MATRIX_FLAGS
def test_matrix_flag_of_the_wrong_dimension_exits_2(
        flag, argv, dim, tmp_path, gaussian_csvs, capsys):
    # the samples have d = 2: a 3x3 matrix was certified as given on most of
    # these routes, and a 1x1 one broadcast
    path = tmp_path / "m.csv"
    np.savetxt(str(path), 400.0 * np.eye(dim), delimiter=",")
    files = dict(zip("AB", gaussian_csvs))
    code, out, err = run_cli([files.get(v, v) for v in argv]
                             + [flag, str(path)], capsys)
    name = flag[2:].replace("-", "_")
    assert (code, out) == (2, "")
    assert err == (f"configuration error: {name} is {dim}x{dim}, but the "
                   "data have dimension 2\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_bound_rejects_non_finite_moment_summary(value, tmp_path, capsys):
    # json writes NaN and ±Infinity, which are not valid JSON but parse
    payload = json.loads(summarize_gaussian(SpdMatrix(np.eye(2)),
                                            n=10_000).to_json())
    payload["x_w3_op"] = float(value)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "x_w3_op must be finite" in err


@pytest.mark.parametrize("field, value, message", [
    ("x_w3_op", "0.5", "x_w3_op must be a number, got '0.5'"),
    ("x_w4_mean", True, "x_w4_mean must be a number, got True"),
    ("d", 2.5, "d must be an integer, got 2.5"),
    ("d", True, "d must be a number, got True"),
    ("n", 1e4, "n must be an integer, got 10000.0"),
    ("x_w3_nonzero", 1.5, "x_w3_nonzero must be an integer, got 1.5"),
], ids=repr)
def test_bound_rejects_moment_summary_fields_of_the_wrong_type(
        field, value, message, tmp_path, capsys):
    payload = json.loads(summarize_gaussian(SpdMatrix(np.eye(2)),
                                            n=10_000).to_json())
    payload[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path)], capsys)
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["bound", "--theorem", "bootstrap-ball", "--from-sample", "S"],
    ["bound", "--theorem", "score-bootstrap", "--from-sample", "S"],
    *(["bootstrap", "--test", test, "--data", "S", "--alpha", "0.1", "--B",
       "200", "--seed", "1"] for test in ("ball", "score")),
    ["experiment", "--name", "coverage", "--seed", "1", "--d", "2", "--n",
     "50", "--B", "200", "--trials", "200"],
], ids=lambda argv: "-".join(argv[:3]))
def test_non_finite_sigma2_exits_2(argv, value, score_csv, capsys):
    code, out, err = run_cli([score_csv if v == "S" else v for v in argv]
                             + ["--sigma2", value], capsys)
    assert (code, out) == (2, "")
    assert "sigma2 must be finite" in err


def test_bound_builds_fourth_order_norms_only_for_halfspaces(
        gaussian_csvs, monkeypatch, capsys):
    a, b = gaussian_csvs
    orders, norms = [], []

    def moment_spy(sample, order):
        orders.append(order)
        return moment(sample, order)

    def norm_spy(tensor):
        norms.append(tensor.order)
        return norm(tensor)

    moment, norm = engine.empirical_moment, engine.operator_norm
    monkeypatch.setattr(engine, "empirical_moment", moment_spy)
    monkeypatch.setattr(engine, "operator_norm", norm_spy)
    # (order-3 moments, order-4 moments, operator norms) per theorem: the
    # ball routes read the Frobenius norm of the third moment only; the
    # half-spaces read its operator norm and those of the order-4 moments
    expected = {"ball-normal": (1, 0, 0), "score-chi2": (1, 0, 0),
                "halfspace-normal": (1, 1, 2), "ball-same-cov": (2, 0, 0),
                "halfspace-same-cov": (2, 2, 3), "ball-diff-cov": (2, 0, 0),
                "halfspace-diff-cov": (2, 2, 3)}
    for theorem, counts in expected.items():
        orders.clear()
        norms.clear()
        code, _, _ = run_cli(["bound", "--theorem", theorem, "--from-sample",
                              a, "--second-sample", b], capsys)
        assert code == 0
        assert (orders.count(3), orders.count(4), len(norms)) == counts, \
            theorem


def test_bound_n_overrides_every_summary(tmp_path, gaussian_csvs, capsys):
    # --n reaches the score route: at the sample's n = 400 this certificate
    # is infeasible
    a, _ = gaussian_csvs
    code, out, _ = run_cli(["bound", "--theorem", "score-bootstrap",
                            "--from-sample", a, "--sigma2", "3",
                            "--n", "100000000"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["n"] == 10 ** 8
    # a supplied summary's n is overridden too
    path = tmp_path / "m.json"
    path.write_text(summarize_gaussian(np.eye(3), 1000).to_json())
    code, out, _ = run_cli(["bound", "--theorem", "ball-normal", "--moments",
                            str(path), "--n", "50000"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["n"] == 50000


def test_bound_warns_about_flags_its_route_does_not_read(
        tmp_path, gaussian_csvs, capsys):
    a, b = gaussian_csvs
    big = str(tmp_path / "big.csv")
    np.savetxt(big, 100.0 * np.eye(2), delimiter=",")
    moments = tmp_path / "m.json"
    moments.write_text(summarize_gaussian(np.eye(2), 1000).to_json())
    n = ["--n", "100000000"]
    # the score route reads --info, not --sigma: same stdout, one warning
    base = ["bound", "--theorem", "score-bootstrap", "--from-sample", a,
            "--sigma2", "3"] + n
    code, out, err = run_cli(base, capsys)
    assert code == 0 and "warning" not in err
    code2, out2, err2 = run_cli(base + ["--sigma", big], capsys)
    assert (code2, out2) == (code, out)
    assert [line for line in err2.splitlines() if "warning" in line] == [
        "warning: --sigma is ignored: --theorem score-bootstrap with "
        "--from-sample does not read it"]
    cases = [
        ("ball-same-cov", ["--from-sample", a, "--second-sample", b,
                           "--sigma-t", big], ["--sigma-t"]),
        ("ball-diff-cov", ["--from-sample", a, "--second-sample", b,
                           "--sigma-t", big, "--sigma", big], []),
        ("ball-normal", ["--from-sample", a, "--second-sample", b,
                         "--weight", big, "--info", big, "--sigma2", "1"],
         ["--second-sample", "--weight", "--info", "--sigma2"]),
        ("elliptical", ["--from-sample", a, "--sigma2", "50", "--weight", big,
                        "--sigma", big, "--info", big], ["--info"]),
        ("ball-normal", ["--moments", str(moments), "--from-sample", a,
                         "--sigma", big, "--sigma2", "1"],
         ["--from-sample", "--sigma", "--sigma2"]),
    ]
    for theorem, flags, ignored in cases:
        code, _, err = run_cli(["bound", "--theorem", theorem] + flags + n,
                               capsys)
        assert code == 0, theorem
        warned = [line.split()[1] for line in err.splitlines()
                  if line.startswith("warning:")]
        assert warned == ignored, theorem
        assert all(theorem in line for line in err.splitlines()
                   if line.startswith("warning:"))


def test_bound_opens_no_file_its_route_ignores(tmp_path, gaussian_csvs,
                                               capsys):
    # a missing file behind an ignored flag is warned about, never opened
    a, b = gaussian_csvs
    missing = str(tmp_path / "missing.csv")
    cases = [
        ("score-bootstrap", ["--from-sample", a, "--sigma2", "3", "--n",
                             "100000000", "--sigma", missing], "--sigma"),
        ("ball-same-cov", ["--from-sample", a, "--second-sample", b,
                           "--sigma-t", missing], "--sigma-t"),
    ]
    for theorem, flags, flag in cases:
        argv = ["bound", "--theorem", theorem] + flags
        code, out, err = run_cli(argv, capsys)
        assert code == 0, theorem
        assert err.splitlines()[0] == (
            f"warning: {flag} is ignored: --theorem {theorem} with "
            "--from-sample does not read it")
        assert (code, out) == run_cli(argv[:-2], capsys)[:2]


def test_bound_ledger_overrides_change_total(tmp_path, capsys):
    ms = summarize_gaussian(SpdMatrix(np.eye(2)), n=1000)
    path = tmp_path / "m.json"
    path.write_text(ms.to_json())
    base = ["bound", "--theorem", "ball-normal", "--moments", str(path)]
    _, out1, _ = run_cli(base, capsys)
    _, out2, _ = run_cli(base + ["--ledger-overrides", '{"m4": 12.0}'], capsys)
    assert json.loads(out2)["total"] > json.loads(out1)["total"]
    code, out, err = run_cli(base + ["--ledger-overrides", '{"m3": 54.1}'],
                             capsys)
    assert (code, out) == (2, "")
    assert "configuration error: unknown ledger constants: m3" in err


@pytest.mark.parametrize("overrides", [
    '[1]', '"x"', '{"m4": "x"}', '{"c_phi4": null}'])
def test_bound_rejects_ledger_overrides_that_are_not_numbers(
        overrides, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(summarize_gaussian(np.eye(2), 1000).to_json())
    code, out, err = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path),
         "--ledger-overrides", overrides], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ") and "Traceback" not in err


def test_bound_optimize_reports_the_evaluator_error(tmp_path, capsys):
    summary = json.loads(summarize_gaussian(np.eye(2), 1000).to_json())
    del summary["x_w4_mean"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(summary))
    code, out, err = run_cli(
        ["bound", "--theorem", "ball-normal", "--moments", str(path),
         "--beta", "optimize"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: bound evaluator returned no "
                          "finite value on the search interval")
    assert err.endswith("moment summary is missing: x_w4_mean\n")


@pytest.mark.parametrize("text, problem", [
    ("[1]", "moment summary must be a JSON object"),
    ("null", "moment summary must be a JSON object"),
    ('"x"', "moment summary must be a JSON object"),
    ('["d", "n"]', "moment summary must be a JSON object"),
    ('{"n": 1000}', "moment summary is missing: d"),
    ('{"d": 2, "sigma_op": 1.0}', "moment summary is missing: n"),
    ("{}", "moment summary is missing: d, n"),
])
@pytest.mark.parametrize("command", ["bound", "score-test"])
def test_moments_file_that_is_not_a_summary_is_a_configuration_error(
        command, text, problem, score_csv, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    info = tmp_path / "info.csv"
    np.savetxt(str(info), 300 * np.eye(3), delimiter=",")
    argv = {"bound": ["bound", "--theorem", "ball-normal"],
            "score-test": ["score-test", "--data", score_csv, "--alpha",
                           "0.05", "--info", str(info)]}[command]
    code, out, err = run_cli(argv + ["--moments", str(path)], capsys)
    assert (code, out, err) == (2, "", f"configuration error: {problem}\n")


def test_moments_file_with_an_impossible_condition_number_exits_2(
        tmp_path, capsys):
    # a condition number below 1 once shrank the ball-normal total 91-fold
    payload = json.loads(summarize_gaussian(np.eye(3), 10_000).to_json())
    path = tmp_path / "m.json"
    argv = ["bound", "--theorem", "ball-normal", "--moments", str(path)]
    path.write_text(json.dumps(payload))
    assert run_cli(argv, capsys)[0] == 0
    payload["sigma_cond"] = 0.01
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "configuration error: sigma_cond = "
                                "0.01 violates sigma_cond >= 1\n")


@pytest.mark.parametrize("field, value, problem", [
    ("lambda0_sq", 1.5,
     "lambda0_sq = 1.5 violates lambda0_sq <= sigma_min_eig = 1.0"),
    ("x_w4_op", 1.25,
     "x_w4_mean = 15.0 violates x_w4_mean <= d^2*x_w4_op = d^2*1.25"),
])
def test_moments_file_with_impossible_fourth_moments_or_lambda0_exits_2(
        field, value, problem, tmp_path, capsys):
    # a lambda0_sq above the covariance's smallest eigenvalue, or a
    # fourth-moment norm below E||W||^4 / d^2, names moments no law has
    payload = json.loads(summarize_gaussian(np.eye(3), 10_000).to_json())
    payload.update(sigma_t_min_eig=1.0, lambda0_sq=1.0)
    path = tmp_path / "m.json"
    argv = ["bound", "--theorem", "ball-normal", "--moments", str(path)]
    path.write_text(json.dumps(payload))
    assert run_cli(argv, capsys)[0] == 0
    payload[field] = value
    path.write_text(json.dumps(payload))
    assert run_cli(argv, capsys) == (2, "",
                                     f"configuration error: {problem}\n")


@pytest.mark.parametrize("field, value, problem", [
    ("x_w3_op", 0.25,
     "x_w3_frob = 0.9 violates x_w3_frob <= d*x_w3_op = d*0.25"),
    ("x_w3_max", 0.25, "x_w3_frob = 0.9 violates x_w3_frob <= "
     "sqrt(x_w3_nonzero)*x_w3_max = sqrt(x_w3_nonzero)*0.25"),
])
def test_moments_file_with_an_impossible_third_moment_envelope_exits_2(
        field, value, problem, tmp_path, capsys):
    # ball-normal takes the least third-moment envelope, so an operator
    # norm or largest entry that no law has would lower its total
    payload = json.loads(summarize_gaussian(np.eye(3), 10_000).to_json())
    payload.update(x_w3_frob=0.9, x_w3_op=0.45, x_w3_max=0.35,
                   x_w3_nonzero=10)
    path = tmp_path / "m.json"
    argv = ["bound", "--theorem", "ball-normal", "--moments", str(path)]
    path.write_text(json.dumps(payload))
    assert run_cli(argv, capsys)[0] == 0
    payload[field] = value
    path.write_text(json.dumps(payload))
    assert run_cli(argv, capsys) == (2, "",
                                     f"configuration error: {problem}\n")


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_ball_detects_shift(gaussian_csvs, capsys):
    a, b = gaussian_csvs
    code, out, _ = run_cli(
        ["distance", "--kind", "ball", "--sample-a", a, "--sample-b", b,
         "--seed", "5", "--centers", "64", "--boot", "30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0.8
    assert payload["flags"] == ["lower_estimate"]
    assert payload["stderr"] > 0


def test_distance_ks_and_levy_one_dimensional(tmp_path, capsys):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    Sample(np.zeros((5, 1))).to_csv(str(x))
    Sample(np.full((5, 1), 0.25)).to_csv(str(y))
    code, out, _ = run_cli(
        ["distance", "--kind", "ks", "--sample-a", str(x), "--sample-b",
         str(y), "--seed", "0"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1.0
    code, out, _ = run_cli(
        ["distance", "--kind", "levy", "--sample-a", str(x), "--sample-b",
         str(y), "--seed", "0"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-9)


def test_distance_ks_rejects_multivariate(gaussian_csvs, capsys):
    a, b = gaussian_csvs
    code, _, err = run_cli(
        ["distance", "--kind", "ks", "--sample-a", a, "--sample-b", b,
         "--seed", "0"], capsys)
    assert code == 2
    assert "one-dimensional" in err


def test_distance_requires_seed(gaussian_csvs):
    a, b = gaussian_csvs
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--kind", "ball", "--sample-a", a,
                  "--sample-b", b])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    *(["experiment", "--name", name, "--seed", "1", "--n", "0"]
      for name in ("coverage", "score-level", "same-law-ball",
                   "same-law-halfspace")),
    # one row: every Efron resample is that row
    ["experiment", "--name", "coverage", "--seed", "1", "--d", "2", "--B",
     "200", "--trials", "200", "--n", "1"],
    ["experiment", "--name", "score-level", "--seed", "1", "--n", "1"],
    ["experiment", "--name", "score-level", "--seed", "1", "--d", "0"],
    *(["experiment", "--name", name, "--seed", "1", "--null-runs", "0"]
      for name in ("same-law-ball", "same-law-halfspace")),
    ["experiment", "--name", "same-law-ball", "--seed", "1",
     "--calibration-n", "0"],
    ["experiment", "--name", "normal-sweep", "--seed", "1", "--n-list", "0"],
    ["experiment", "--name", "normal-sweep", "--seed", "1", "--n-list", "20",
     "--blocks", "0"],
    *(["experiment", "--name", name, "--seed", "1", "--n", "50",
       "--trials", "200", "--B", b]
      for name in ("coverage", "score-level") for b in ("0", "150")),
    *(["distance", "--kind", kind, "--sample-a", "A", "--sample-b", "B",
       "--seed", "1", flag, value]
      for kind in ("ball", "halfspace")
      for flag, value in (("--centers", "-3"), ("--boot", "-2"),
                          ("--boot", "1"))),
], ids=lambda argv: "-".join(argv[2:3] + argv[-2:]))
def test_invalid_sizes_exit_2(argv, gaussian_csvs, capsys, recwarn):
    paths = dict(zip("AB", gaussian_csvs))
    code, out, err = run_cli([paths.get(v, v) for v in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ") and "Traceback" not in err
    # pytest records warnings instead of printing them, so check both
    assert "Warning" not in err and not recwarn.list


# ---------------------------------------------------------------------------
# bootstrap / score-test
# ---------------------------------------------------------------------------

def test_bootstrap_ball_matches_library(score_csv, capsys):
    code, out, _ = run_cli(
        ["bootstrap", "--test", "ball", "--data", score_csv, "--alpha", "0.1",
         "--B", "500", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    direct = bootstrap_ball_quantile(Sample.from_csv(score_csv), np.eye(3),
                                     alpha=0.1, B=500, seed=3)
    assert payload["quantile"] == direct.quantile
    assert payload["test"] == "ball-quantile"
    assert payload["certificate"] is None


@pytest.mark.parametrize("test, message", [
    ("ball", "need at least 2 rows, got 1"),
    ("score", "need at least 2 score rows"),
])
def test_bootstrap_of_one_row_is_a_configuration_error(test, message,
                                                       tmp_path, capsys):
    # every Efron resample of one row is that row: the ball replicates
    # would all be 0
    path = tmp_path / "one_row.csv"
    Sample(np.array([[0.5, 1.5]])).to_csv(str(path))
    code, out, err = run_cli(
        ["bootstrap", "--test", test, "--data", str(path), "--alpha", "0.1",
         "--B", "200", "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")


def test_bootstrap_warns_about_the_matrix_flag_its_test_ignores(
        tmp_path, score_csv, capsys):
    # --test ball reads --weight and --test score reads --info; the other
    # flag's missing file is warned about, never opened
    missing = str(tmp_path / "missing.csv")
    for test, flag in (("ball", "--info"), ("score", "--weight")):
        argv = ["bootstrap", "--test", test, "--data", score_csv, "--alpha",
                "0.1", "--B", "200", "--seed", "3", "--sigma2", "0.05"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and "warning" not in err
        assert run_cli(argv + [flag, missing], capsys) == (
            code, out, err + f"warning: {flag} is ignored: --test {test} "
                             "does not read it\n")


def test_bootstrap_score_payload_contract(score_csv, capsys):
    code, out, _ = run_cli(
        ["bootstrap", "--test", "score", "--data", score_csv, "--alpha",
         "0.1", "--B", "500", "--seed", "3", "--sigma2", "0.05"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["test"] == "bootstrap-score"
    assert payload["decision"] in ("accept", "reject")
    assert payload["statistic"] >= 0
    assert payload["quantile"] > 0
    assert payload["certificate"]["theorem"] == "bootstrap_score_level"
    assert payload["certificate_error"] is None


def test_score_test_rao_uses_chi2_threshold(score_csv, tmp_path, capsys):
    info = tmp_path / "info.csv"
    np.savetxt(str(info), 300 * np.eye(3), delimiter=",")
    code, out, _ = run_cli(
        ["score-test", "--data", score_csv, "--alpha", "0.05", "--info",
         str(info)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["test"] == "rao"
    assert payload["quantile"] == pytest.approx(chi2_quantile(0.05, 3),
                                                rel=1e-12)
    assert payload["decision"] == "accept"  # standard-normal scores, H0 true


def test_score_test_rao_requires_info(score_csv, capsys):
    code, _, err = run_cli(
        ["score-test", "--data", score_csv, "--alpha", "0.05"], capsys)
    assert code == 2
    assert "--info" in err


# ---------------------------------------------------------------------------
# experiment sweeps
# ---------------------------------------------------------------------------

def test_experiment_anticoncentration_csv(capsys):
    code, out, _ = run_cli(
        ["experiment", "--name", "anticoncentration", "--seed", "1",
         "--d-list", "2,8", "--eps", "0.001"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,n,family,estimate,stderr,bound_total,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "gaussian_shell"
    assert float(first[3]) == pytest.approx(0.606531, abs=2e-3)


def test_experiment_portnoy_has_slope_sentinel_row(capsys):
    code, out, err = run_cli(
        ["experiment", "--name", "portnoy", "--seed", "2", "--d-list", "4,8",
         "--n", "256", "--reps", "40"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,n,family,estimate,stderr,bound_total,seed"
    last = lines[-1].split(",")
    assert last[0] == "0" and last[2] == "portnoy_slope_fit"
    assert "slope" in err


def test_experiment_coverage_warns_when_sigma2_is_below_the_variance(capsys):
    base = ["experiment", "--name", "coverage", "--seed", "3", "--d", "2",
            "--n", "100", "--B", "200", "--trials", "200"]
    code, out, err = run_cli(base + ["--sigma2", "0.05"], capsys)
    assert code == 0
    assert "below the largest coordinate variance" in err
    row = out.strip().split("\n")[1].split(",")
    assert float(row[5]) > 0  # the total is still printed
    # σ² = 5 is above the unit variances (and infeasible at n = 100)
    code, _, err = run_cli(base + ["--sigma2", "5"], capsys)
    assert code == 0
    assert "below" not in err and "infeasible" in err


def test_experiment_score_level_smoke(capsys):
    code, out, _ = run_cli(
        ["experiment", "--name", "score-level", "--seed", "2", "--d", "2",
         "--n", "100", "--B", "200", "--trials", "60", "--alpha", "0.1"],
        capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    level = float(row[3])
    assert 0.0 <= level <= 0.35


def test_experiment_same_law_ball_below_threshold(capsys):
    code, out, err = run_cli(
        ["experiment", "--name", "same-law-ball", "--seed", "2", "--d", "2",
         "--n", "2000", "--centers", "16", "--null-runs", "40",
         "--calibration-n", "1024", "--boot", "20"], capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    estimate, threshold = float(row[3]), float(row[5])
    assert estimate < threshold
    assert "below" in err


@pytest.mark.parametrize("name", ["same-law-ball", "same-law-halfspace"])
def test_experiment_same_law_runs_at_adjacent_seeds_share_no_sample(
        name, monkeypatch, capsys):
    seeds = {7: [], 8: []}
    sample = DistributionSpec.sample

    def sample_spy(spec, n, seed):
        seeds[root].append(seed)
        return sample(spec, n, seed)

    monkeypatch.setattr(DistributionSpec, "sample", sample_spy)
    for root in seeds:
        code, _, _ = run_cli(
            ["experiment", "--name", name, "--seed", str(root), "--d", "2",
             "--n", "100", "--null-runs", "2", "--calibration-n", "64",
             "--centers", "4", "--boot", "0"], capsys)
        assert code == 0
        assert len(set(seeds[root])) == 2
    assert not set(seeds[7]) & set(seeds[8])


def test_experiment_normal_sweep_columns(capsys):
    code, out, _ = run_cli(
        ["experiment", "--name", "normal-sweep", "--seed", "2", "--d", "2",
         "--n-list", "64,256", "--blocks", "512", "--centers", "16",
         "--boot", "20", "--family", "symmetric_L"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line, n in zip(lines[1:], (64, 256)):
        cells = line.split(",")
        assert cells[1] == str(n) and cells[2] == "symmetric_L"
        assert float(cells[3]) < float(cells[5])  # estimate below certificate


def test_experiment_normal_sweep_certifies_on_rows_of_its_own(monkeypatch,
                                                              capsys):
    # the certificate's rows are neither the first block of the block sums
    # nor a prefix of another --n-list entry's rows
    drawn, summarized = {}, []
    sample, summarize = DistributionSpec.sample, cli.summarize_sample

    def sample_spy(spec, n, seed):
        drawn[n] = sample(spec, n, seed)
        return drawn[n]

    def summarize_spy(x, **kwargs):
        summarized.append(x.data)
        return summarize(x, **kwargs)

    monkeypatch.setattr(DistributionSpec, "sample", sample_spy)
    monkeypatch.setattr(cli, "summarize_sample", summarize_spy)
    for family in ("gaussian", "laplace_product", "exponential_centered"):
        drawn.clear()
        summarized.clear()
        code, _, _ = run_cli(
            ["experiment", "--name", "normal-sweep", "--seed", "3", "--d",
             "2", "--n-list", "50,100", "--blocks", "4", "--centers", "4",
             "--boot", "0", "--family", family], capsys)
        assert code == 0
        small, large = summarized
        assert not np.array_equal(small, drawn[200].data[:50]), family
        assert not np.array_equal(large, drawn[400].data[:100]), family
        assert not np.array_equal(small, large[:50]), family


def test_experiment_unknown_family_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--name", "score-level", "--seed", "1",
                  "--family", "cauchy"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_supplies_defaults_and_flags_win(tmp_path, score_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.2, "B": 300, "seed": 9,
                               "data": score_csv}))
    code, out, _ = run_cli(
        ["--config", str(cfg), "bootstrap", "--test", "ball", "--B", "500"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 0.2  # from config
    assert payload["B"] == 500      # flag overrides config
    assert payload["seed"] == 9


def test_config_values_that_are_not_strings_are_parsed_as_flags(tmp_path,
                                                                capsys):
    cfg = tmp_path / "cfg.json"
    moments = tmp_path / "m.json"
    moments.write_text(summarize_gaussian(np.eye(2), 1000).to_json())
    base = ["bound", "--theorem", "ball-normal", "--moments", str(moments)]
    cfg.write_text(json.dumps({"ledger_overrides": {"m4": 12.0}}))
    code, out, _ = run_cli(["--config", str(cfg), *base], capsys)
    assert code == 0
    flagged = run_cli(base + ["--ledger-overrides", '{"m4": 12.0}'], capsys)
    assert flagged[:2] == (0, out) and out != run_cli(base, capsys)[1]
    cfg.write_text(json.dumps({"d_list": 8}))
    code, out, _ = run_cli(["--config", str(cfg), "experiment", "--name",
                            "anticoncentration", "--seed", "1"], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["8"]
    # null keeps the flag's default
    cfg.write_text(json.dumps({"d_list": None}))
    code, out, _ = run_cli(["--config", str(cfg), "experiment", "--name",
                            "anticoncentration", "--seed", "1"], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [
        "8", "16", "32", "64"]


def test_config_value_its_flag_cannot_parse_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1.5}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "experiment", "--name",
                  "anticoncentration", "--d-list", "1"])
    assert exc.value.code == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphaz": 0.2}))
    code, _, err = run_cli(
        ["--config", str(cfg), "verify-constants"], capsys)
    assert code == 2
    assert "alphaz" in err


def test_config_missing_file_exits_2(capsys):
    code, _, err = run_cli(
        ["--config", "/nonexistent/cfg.json", "verify-constants"], capsys)
    assert code == 2
    assert "configuration error" in err


# ---------------------------------------------------------------------------
# output plumbing and determinism
# ---------------------------------------------------------------------------

def test_out_flag_duplicates_stdout(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(["verify-constants", "--out", str(out_path)],
                           capsys)
    assert code == 0
    assert out_path.read_text() == out


def test_repeated_runs_byte_identical(gaussian_csvs, capsys):
    a, b = gaussian_csvs
    argv = ["distance", "--kind", "halfspace", "--sample-a", a,
            "--sample-b", b, "--seed", "11", "--centers", "32", "--boot",
            "25"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_subprocess_exit_codes_and_determinism(tmp_path):
    env_runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "cltcert.cli", "verify-constants"],
            capture_output=True)
        assert proc.returncode == 0
        env_runs.append(proc.stdout)
    assert env_runs[0] == env_runs[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cltcert.cli", "bound", "--theorem",
         "no-such-theorem"], capture_output=True)
    assert proc.returncode == 2


def test_cli_import_defers_scipy():
    # scipy is imported by the two functions that need it, not at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cltcert.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
