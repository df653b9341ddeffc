"""Golden output of ``cltcert bound`` for every theorem.

``--moments``: one hand-written summary sets every field with a nonzero value
(n = 10⁸ keeps the bootstrap certificates feasible); each theorem is
evaluated at β = 0.829 and with ``--beta optimize``.  The path is scalar
float arithmetic with no BLAS, so stdout must match
``golden/bound_moments.txt`` byte for byte.

``--from-sample``: every theorem a sample can summarize, at the same two β
settings, on a skewed X and a Gaussian T of different covariance written
from a seeded generator, first with every matrix estimated from the samples
and then again with ``--sigma``, ``--sigma-t``, ``--weight`` and ``--info``
supplied.  The moment tensors go through BLAS, whose
summation order may vary between builds, so ``golden/bound_from_sample.txt``
is compared key for key and string for string, and number for number at a
relative tolerance of 1e-12.

``distance`` and the same-law experiments: every estimator kind on small
seeded samples (the 1-D pair on a grid of quarter steps, so that values tie
within and across samples), and the ball and half-space kinds again at
d = 5 and d = 7 on quarter-step samples with repeated rows, compared with
``golden/distance.txt`` in the same way; the cells of a CSV row are compared
as numbers where they parse as one.  The ball scale (a covariance) and the
projections go through BLAS too.

``experiment``, ``bootstrap`` and ``verify-constants``: the coverage,
normal-sweep and same-law sweeps on each of the five families, the
score-level, portnoy and anticoncentration sweeps, both bootstrap tests with
σ² = 1 and the constant tuples, at small sizes, compared with
``golden/experiment.txt`` in the same way.  Resample means go through BLAS.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from cltcert import cli
from cltcert.engine import THEOREM_TABLE
from cltcert.tensors import Sample

GOLDEN = Path(__file__).parent / "golden" / "bound_moments.txt"
GOLDEN_FROM_SAMPLE = Path(__file__).parent / "golden" / "bound_from_sample.txt"
GOLDEN_DISTANCE = Path(__file__).parent / "golden" / "distance.txt"
GOLDEN_EXPERIMENT = Path(__file__).parent / "golden" / "experiment.txt"

SUMMARY = {
    "d": 3, "n": 10 ** 8,
    "sigma_op": 1.3, "sigma_frob": 1.9, "sigma_min_eig": 0.8,
    "sigma_cond": 1.625, "sigma_t_op": 1.4, "sigma_t_min_eig": 0.7,
    "cov_gap_frob": 0.25, "cov_gap_op": 0.2,
    "x_w3_frob": 0.9, "x_w3_op": 0.45, "x_w3_max": 0.35, "x_w3_nonzero": 10,
    "x_w4_mean": 17.5, "x_w4_op": 3.4, "t_w4_mean": 16.2, "t_w4_op": 3.1,
    "dw3_frob": 0.3, "dw3_op": 0.12, "dw3_max": 0.09, "dw3_nonzero": 14,
    "x_c3_frob": 1.1, "x_c4_mean": 24.0, "t_c4_mean": 27.0,
    "x_raw4_op": 5.2, "t_raw4_op": 6.1,
    "d3_frob": 0.4, "d3_op": 0.18, "d3_max": 0.11, "d3_nonzero": 20,
    "lambda0_sq": 0.7,
    "x_m6": 110.0, "l_m6": 120.0, "u6_mean": 30.0, "z6_mean": 105.0,
    "d4_frob": 0.6, "d4_max": 0.2, "m6_sym": 15.5, "lambda_z_sq": 0.45,
    "sigma2": 1.5, "coord_var_max": 1.3,
}

# every theorem but the two symmetric ones, whose matching law a sample
# cannot determine
SAMPLE_THEOREMS = ("ball-normal", "ball-same-cov", "ball-diff-cov",
                   "halfspace-normal", "halfspace-same-cov",
                   "halfspace-diff-cov", "bootstrap-ball", "elliptical",
                   "score-bootstrap", "score-chi2")


def bound_outputs(tmp_path, capsys) -> str:
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(SUMMARY))
    out = []
    for theorem in THEOREM_TABLE:
        for beta in ("0.829", "optimize"):
            code = cli.main(["bound", "--theorem", theorem, "--moments",
                             str(path), "--beta", beta])
            assert code == 0, (theorem, beta)
            out.append(capsys.readouterr().out)
    return "".join(out)


def test_bound_from_moments_matches_golden_output(tmp_path, capsys):
    assert bound_outputs(tmp_path, capsys) == GOLDEN.read_text()


# the matrices of the second --from-sample pass, as CSV rows
SUPPLIED_MATRICES = {
    "--sigma": "1.0,0.2,0.1\n0.2,1.1,-0.1\n0.1,-0.1,0.9\n",
    "--sigma-t": "1.0,0.0,0.0\n0.0,1.44,0.0\n0.0,0.0,0.81\n",
    "--weight": "2.0,0.5,0.0\n0.5,1.0,0.25\n0.0,0.25,1.5\n",
    "--info": "3000,150,0\n150,2900,-60\n0,-60,3100\n",
}


def from_sample_outputs(tmp_path) -> list:
    """Stdout of ``bound --from-sample`` for each sample theorem and β,
    first with every matrix estimated from the samples, then with all four
    matrix flags supplied (each route reads those it uses)."""
    rng = np.random.default_rng(20)
    x, t = tmp_path / "x.csv", tmp_path / "t.csv"
    Sample(rng.exponential(size=(3000, 3)) - 1.0).to_csv(str(x))
    Sample(rng.standard_normal((2500, 3)) * [1.0, 1.2, 0.9]).to_csv(str(t))
    supplied = []
    for flag, text in SUPPLIED_MATRICES.items():
        path = tmp_path / (flag[2:] + ".csv")
        path.write_text(text)
        supplied += [flag, str(path)]
    out = []
    for extra in ([], supplied):
        for theorem in SAMPLE_THEOREMS:
            for beta in ("0.829", "optimize"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["bound", "--theorem", theorem,
                                     "--from-sample", str(x),
                                     "--second-sample", str(t), "--sigma2",
                                     "0.1", "--beta", beta, *extra])
                assert code == 0, (theorem, beta, extra)
                out.append(buf.getvalue())
    return out


def assert_same_json(got, want, where=""):
    """Keys, strings and booleans equal; numbers equal to rel 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), where
    else:
        assert type(got) in (int, float), where
        assert math.isclose(got, want, rel_tol=1e-12), (where, got, want)


def test_bound_from_sample_matches_golden_output(tmp_path):
    want = GOLDEN_FROM_SAMPLE.read_text().splitlines()
    got = from_sample_outputs(tmp_path)
    assert len(got) == len(want) == 4 * len(SAMPLE_THEOREMS)
    for line, (g, w) in enumerate(zip(got, want), 1):
        assert_same_json(json.loads(g), json.loads(w), f"line {line}")


def distance_outputs(tmp_path) -> list:
    """Stdout lines of ``distance`` for each kind, of the two same-law
    experiments and of the ball and half-space kinds at d = 5 and 7."""
    rng = np.random.default_rng(30)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    Sample(rng.standard_normal((600, 3))).to_csv(str(a))
    Sample(np.round(8 * rng.standard_t(5, size=(500, 3))) / 8).to_csv(str(b))
    a1, b1 = tmp_path / "a1.csv", tmp_path / "b1.csv"
    Sample(np.round(4 * rng.standard_normal((300, 1))) / 4).to_csv(str(a1))
    Sample(np.round(4 * rng.exponential(size=(250, 1)) - 4) / 4).to_csv(
        str(b1))
    runs = [["distance", "--kind", kind, "--sample-a", str(a), "--sample-b",
             str(b), "--seed", "5", "--centers", "16", "--boot", "30"]
            for kind in ("ball", "halfspace")]
    runs += [["distance", "--kind", kind, "--sample-a", str(a1),
              "--sample-b", str(b1), "--seed", "5"] for kind in ("ks", "levy")]
    runs += [["experiment", "--name", name, "--seed", "5", "--d", "2", "--n",
              "500", "--null-runs", "20", "--calibration-n", "256",
              "--centers", "8", "--boot", "20"]
             for name in ("same-law-ball", "same-law-halfspace")]
    for d in (5, 7):
        # repeated rows tie within and across samples at every candidate,
        # and quarter steps tie more at the origin and on the axes
        x = np.round(4 * rng.standard_normal((360, d))) / 4
        y = np.round(4 * rng.laplace(size=(320, d))) / 4
        ad, bd = tmp_path / f"a{d}.csv", tmp_path / f"b{d}.csv"
        Sample(np.concatenate([x, x[:40], y[:30]])).to_csv(str(ad))
        Sample(np.concatenate([y, y[:50], x[:20]])).to_csv(str(bd))
        runs += [["distance", "--kind", kind, "--sample-a", str(ad),
                  "--sample-b", str(bd), "--seed", "9", "--centers", "12",
                  "--boot", "25"] for kind in ("ball", "halfspace")]
    out = []
    for argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == 0, argv
        out.extend(buf.getvalue().splitlines())
    return out


def _cells(line: str) -> list:
    """A CSV row's cells, as floats where they parse as one."""
    cells = []
    for cell in line.split(","):
        try:
            cells.append(float(cell))
        except ValueError:
            cells.append(cell)
    return cells


def test_distance_matches_golden_output(tmp_path):
    want = GOLDEN_DISTANCE.read_text().splitlines()
    got = distance_outputs(tmp_path)
    assert len(got) == len(want) == 12
    for line, (g, w) in enumerate(zip(got, want), 1):
        parse = json.loads if w.startswith("{") else _cells
        assert_same_json(parse(g), parse(w), f"line {line}")


FAMILIES = ("gaussian", "portnoy_mixed", "symmetric_L", "laplace_product",
            "exponential_centered")


def cli_lines(runs) -> list:
    """Stdout lines of ``cli.main`` over ``runs``; each run must exit 0."""
    out = []
    for argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == 0, argv
        out.extend(buf.getvalue().splitlines())
    return out


def experiment_outputs(tmp_path) -> list:
    """Stdout lines of every experiment sweep, of both bootstrap tests and
    of ``verify-constants``."""
    data = tmp_path / "data.csv"
    Sample(np.random.default_rng(40).standard_normal((20000, 2))).to_csv(
        str(data))
    base = ["--seed", "6", "--d", "2"]
    runs = []
    for family in FAMILIES:
        runs.append(["experiment", "--name", "coverage", *base, "--family",
                     family, "--n", "100", "--B", "200", "--trials", "200",
                     "--sigma2", "1"])
        runs.append(["experiment", "--name", "normal-sweep", *base,
                     "--family", family, "--n-list", "64,128", "--blocks",
                     "256", "--centers", "8", "--boot", "10"])
        runs += [["experiment", "--name", name, *base, "--family", family,
                  "--n", "300", "--null-runs", "10", "--calibration-n", "128",
                  "--centers", "8", "--boot", "10"]
                 for name in ("same-law-ball", "same-law-halfspace")]
    runs += [
        ["experiment", "--name", "score-level", *base, "--n", "100", "--B",
         "200", "--trials", "20"],
        ["experiment", "--name", "portnoy", "--seed", "6", "--d-list", "2,4",
         "--n", "100", "--reps", "30"],
        ["experiment", "--name", "anticoncentration", "--seed", "6",
         "--d-list", "1,3"],
    ]
    runs += [["bootstrap", "--test", test, "--data", str(data), "--alpha",
              "0.1", "--B", "200", "--seed", "6", "--sigma2", "1"]
             for test in ("ball", "score")]
    runs.append(["verify-constants"])
    return cli_lines(runs)


def test_experiment_matches_golden_output(tmp_path):
    want = GOLDEN_EXPERIMENT.read_text().splitlines()
    got = experiment_outputs(tmp_path)
    assert len(got) == len(want) == 57
    for line, (g, w) in enumerate(zip(got, want), 1):
        parse = json.loads if w.startswith("{") else _cells
        assert_same_json(parse(g), parse(w), f"line {line}")
